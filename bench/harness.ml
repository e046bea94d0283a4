(* Shared benchmark plumbing: section headers, the machine-readable
   result document, timers, the paper-order DNA databases, the workload
   sample the per-claim sections run over, and the native-corpus entry
   point lookup. *)

module W = Jitbull_workloads.Workloads
module V = Jitbull_vdc.Demonstrators
module VC = Jitbull_passes.Vuln_config
module Engine = Jitbull_jit.Engine
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull
module Jsonx = Jitbull_obs.Jsonx
module Clock = Jitbull_obs.Clock

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Machine-readable results, accumulated by sections and written out when
   --json OUT is given (the repo's BENCH_*.json perf trajectory). *)
let json_sections : (string * Jsonx.t) list ref = ref []

let emit name payload = json_sections := !json_sections @ [ (name, payload) ]

let write_json path command timings =
  let doc =
    Jsonx.Assoc
      [
        ("schema", Jsonx.String "jitbull-bench/1");
        ("command", Jsonx.String command);
        ("unix_time", Jsonx.Float (Unix.time ()));
        ("host", Env_report.to_json ());
        ( "section_seconds",
          Jsonx.Assoc (List.map (fun (name, dt) -> (name, Jsonx.Float dt)) timings) );
        ("sections", Jsonx.Assoc !json_sections);
      ]
  in
  let oc = open_out path in
  output_string oc (Jsonx.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote machine-readable results to %s\n" path

(* All durations go through the injectable clock so a manual source can
   drive the harness deterministically in tests. *)
let time f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

let best_of_3 f = min (f ()) (min (f ()) (f ()))

(* Deterministic workloads: best-of-3 is a stable point estimate. *)
let time_best f = best_of_3 (fun () -> snd (time f))

(* The paper's DB build-up order: the four public-VDC vulnerabilities
   first (#1..#4), then the four reconstructed ones (#5..#8, §VI-D). *)
let cve_order =
  [
    VC.CVE_2019_17026;
    VC.CVE_2019_9810;
    VC.CVE_2019_9791;
    VC.CVE_2019_11707;
    VC.CVE_2019_9792;
    VC.CVE_2019_9795;
    VC.CVE_2019_9813;
    VC.CVE_2020_26952;
  ]

let first_n n lst = List.filteri (fun i _ -> i < n) lst

(* A database holding the first [n] VDCs' DNA, harvested once per size
   and shared: building one runs the demonstrators, which must never be
   part of a timed region. *)
let db_cache : (int, Db.t) Hashtbl.t = Hashtbl.create 8

let cached_db n =
  match Hashtbl.find_opt db_cache n with
  | Some db -> db
  | None ->
    let db = Db.create () in
    ignore (V.harvest db (first_n n cve_order));
    Hashtbl.replace db_cache n db;
    db

(* A fresh #n-VDC JITBULL configuration (its own policy cache) over the
   shared database. *)
let protected_config ?obs n =
  Jitbull.config ?obs ~vulns:(VC.make (first_n n cve_order)) (cached_db n)

(* The workload sample the telemetry, ablation and service
   sections run over. *)
let sample =
  List.filter_map W.find [ "Richards"; "RayTrace"; "Splay"; "TypeScript"; "Microbench1" ]

(* Index of the function named [work] in a program that has run to its
   end (the native and profile corpora's measured entry point). *)
let work_index (vm : Jitbull_bytecode.Vm.t) =
  let funcs = vm.Jitbull_bytecode.Vm.program.Jitbull_bytecode.Op.funcs in
  let rec find i =
    if i < 0 then failwith "bench: no function named work"
    else if String.equal funcs.(i).Jitbull_bytecode.Op.name "work" then i
    else find (i - 1)
  in
  find (Array.length funcs - 1)
