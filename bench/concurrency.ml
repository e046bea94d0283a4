(* Concurrency: off-main-thread Ion compilation.

   Runs a workload sample under the #4-VDC JITBULL configuration with the
   Ion tier-up offloaded to 0/1/2/4 helper domains. jobs=0 is the
   synchronous reference: every other job count must produce the same
   output, and every function analyzed in both runs must receive the
   identical go/no-go verdict (the background pipeline analyzes frozen
   enqueue-time snapshots, so per-function verdicts are deterministic;
   the *set* of hot functions can legitimately grow by one or two, since
   a caller keeps executing baseline code during its compile window and
   its callees — which synchronous inlining would have starved of
   invocations — may cross the Ion threshold themselves). Reported per
   cell: best-of-3 wall time and the main-thread stall — the time the
   main thread spends blocked on compilation (the whole compile at
   jobs=0, only end-of-run drain waits otherwise). Wall-time wins need
   real cores; stall shrinks regardless. *)

open Harness
module Table = Jitbull_util.Text_table
module Compile_queue = Jitbull_jit.Compile_queue
module Obs = Jitbull_obs.Obs
module Audit = Jitbull_obs.Audit

let run () =
  section "Concurrency: off-main-thread Ion compilation (0/1/2/4 helper domains)";
  Printf.printf
    "Host reports %d core(s); helper domains beyond that shrink main-thread\n\
     stall but cannot shrink wall time.\n\n"
    (Domain.recommended_domain_count ());
  let job_counts = [ 0; 1; 2; 4 ] in
  let with_pool jobs f =
    if jobs = 0 then f None
    else begin
      let pool = Compile_queue.create ~jobs () in
      Fun.protect ~finally:(fun () -> Compile_queue.shutdown pool) (fun () -> f (Some pool))
    end
  in
  let run_one ?obs pool (w : W.t) =
    let cfg = { (protected_config ?obs 4) with Engine.compile_pool = pool } in
    let out, e = Engine.run_source cfg w.W.source in
    (out, Engine.stats e)
  in
  (* an audited run: its output and the analyzer's func → verdict pairs,
     deduplicated *)
  let audited pool w =
    let obs = Obs.create () in
    let out, _ = run_one ~obs pool w in
    let verdicts =
      Audit.records (Obs.audit obs)
      |> List.filter_map (fun (r : Audit.record) ->
             if r.Audit.source = Audit.Fresh then
               Some (r.Audit.func_name, Audit.verdict_to_string r.Audit.verdict)
             else None)
      |> List.sort_uniq compare
    in
    (out, verdicts)
  in
  (* every function analyzed in both runs got the identical verdict(s) *)
  let verdicts_agree a b =
    let funcs l = List.sort_uniq compare (List.map fst l) in
    let common = List.filter (fun f -> List.mem f (funcs b)) (funcs a) in
    List.for_all
      (fun f ->
        List.filter (fun (g, _) -> String.equal g f) a
        = List.filter (fun (g, _) -> String.equal g f) b)
      common
  in
  let json_rows = ref [] in
  let rows =
    List.map
      (fun (w : W.t) ->
        let out0, v0 = with_pool 0 (fun pool -> audited pool w) in
        let cells =
          List.map
            (fun jobs ->
              with_pool jobs (fun pool ->
                  let out, v = audited pool w in
                  (* identity vs the synchronous reference *)
                  assert (String.equal out out0);
                  assert (verdicts_agree v0 v);
                  (* timed runs install no Obs; stall is the last one's *)
                  let last = ref None in
                  let wall =
                    time_best (fun () -> last := Some (snd (run_one pool w)))
                  in
                  let s = Option.get !last in
                  json_rows :=
                    Jsonx.Assoc
                      [
                        ("name", Jsonx.String w.W.name);
                        ("jobs", Jsonx.Int jobs);
                        ("wall_ms", Jsonx.Float (wall *. 1000.0));
                        ("stall_ms", Jsonx.Float (s.Engine.main_stall_seconds *. 1000.0));
                        ("async_installs", Jsonx.Int s.Engine.async_installs);
                        ("stale_results", Jsonx.Int s.Engine.stale_results);
                        ("verdicts_identical", Jsonx.Bool true);
                      ]
                    :: !json_rows;
                  Printf.sprintf "%.0f / %.2f ms" (wall *. 1000.0)
                    (s.Engine.main_stall_seconds *. 1000.0)))
            job_counts
        in
        (w.W.name :: cells) @ [ "identical" ])
      sample
  in
  Table.print
    ~headers:
      ("Benchmark"
      :: List.map (fun j -> Printf.sprintf "jobs=%d wall/stall" j) job_counts
      @ [ "verdicts" ])
    rows;
  emit "concurrency"
    (Jsonx.Assoc
       [
         ("cores", Jsonx.Int (Domain.recommended_domain_count ()));
         ("rows", Jsonx.List (List.rev !json_rows));
       ])
