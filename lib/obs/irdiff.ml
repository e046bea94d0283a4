(* Bounded ring of per-compile IR diffs, keyed by audit sequence number.
   Same discipline as the audit trail: one mutex covers ring and
   aggregates, serializing helper compile domains and the main thread;
   cumulative aggregates survive eviction. *)

module Intern = Jitbull_util.Intern
module Ring = Jitbull_util.Ring

type pass_diff = {
  pd_pass : string;
  pd_instrs_before : int;
  pd_instrs_after : int;
  pd_blocks_before : int;
  pd_blocks_after : int;
  pd_opcodes_added : (string * int) list;
  pd_opcodes_removed : (string * int) list;
  pd_chains_added : (Intern.id * int) list;
  pd_chains_removed : (Intern.id * int) list;
}

type compile_diff = {
  cd_func : string;
  cd_total_passes : int;
  cd_passes : pass_diff list;
  cd_capture_seconds : float;
}

type t = {
  ring : (int * compile_diff) Ring.t;
  mu : Mutex.t;
  contributions : (string * string, int) Hashtbl.t;
      (* (pass, cve) → cumulative sub-chain instances introduced *)
}

let create ?(capacity = 64) () =
  { ring = Ring.create ~capacity; mu = Mutex.create (); contributions = Hashtbl.create 16 }

let capacity t = Ring.capacity t.ring
let total t = Ring.total t.ring
let attach t ~seq diff = Mutex.protect t.mu (fun () -> Ring.push t.ring (seq, diff))
let retained t = Mutex.protect t.mu (fun () -> Ring.to_list t.ring)
let find t seq = List.assoc_opt seq (List.rev (retained t))
let seqs t = List.sort compare (List.map fst (retained t))

let record_contribution t ~pass ~cve n =
  if n > 0 then
    Mutex.protect t.mu (fun () ->
        let key = (pass, cve) in
        Hashtbl.replace t.contributions key
          (n + Option.value ~default:0 (Hashtbl.find_opt t.contributions key)))

let render_prometheus t =
  let total, contribs =
    Mutex.protect t.mu (fun () ->
        ( Ring.total t.ring,
          Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.contributions []
          |> List.sort compare ))
  in
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  line "# TYPE jitbull_explain_diffs_total counter\n";
  line "jitbull_explain_diffs_total %d\n" total;
  if contribs <> [] then begin
    line "# TYPE jitbull_explain_chains_introduced_total counter\n";
    List.iter
      (fun ((pass, cve), n) ->
        line "jitbull_explain_chains_introduced_total{pass=\"%s\",cve=\"%s\"} %d\n"
          (Metrics.escape_label_value pass)
          (Metrics.escape_label_value cve)
          n)
      contribs
  end;
  Buffer.contents buf

let chain_key = Intern.to_string
