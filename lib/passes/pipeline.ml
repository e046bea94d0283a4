module Mir = Jitbull_mir.Mir
module Snapshot = Jitbull_mir.Snapshot
module Verifier = Jitbull_mir.Verifier
module Obs = Jitbull_obs.Obs

let passes : Pass.t list =
  [
    Inline.pass;
    Split_critical_edges.pass;
    Phi_elimination.pass;
    Type_analysis.pass;
    Simplify.pass;
    Alias_analysis.pass;
    Gvn.pass;
    Licm.pass;
    Range_analysis.pass;
    Bounds_check_elim.pass;
    Constant_folding.pass;
    Fold_tests.pass;
    Empty_block_elim.pass;
    Dce.pass;
    Sink.pass;
    Edge_case_analysis.pass;
    Reorder.pass;
    Renumber.pass;
  ]

let pass_names = List.map (fun (p : Pass.t) -> p.Pass.name) passes

let can_disable name =
  List.exists (fun (p : Pass.t) -> String.equal p.Pass.name name && p.Pass.can_disable) passes

(* Per pass, built once here (the pass list is static) and read-only
   afterwards, so lock-free to consult: its sampling-profiler tag and the
   names of its trace span and metrics. *)
type stage = {
  pass : Pass.t;
  prof_tag : int;
  span : string;  (* "pass.<name>" *)
  delta_size : string;
  ir_delta_size : string;
  changed : string;
}

let stages =
  List.map
    (fun (p : Pass.t) ->
      let span = "pass." ^ p.Pass.name in
      {
        pass = p;
        prof_tag = Jitbull_obs.Profile.tag ("pass;" ^ p.Pass.name);
        span;
        delta_size = span ^ ".delta_size";
        ir_delta_size = span ^ ".ir_delta_size";
        changed = span ^ ".changed";
      })
    passes

(* Run one pass (and the verifier, if requested). With an [Obs.t]
   installed, each pass gets its own span, a ["pass.<name>.seconds"]
   latency histogram, a ["pass.<name>.delta_size"] counter accumulating
   the instruction-count change, a ["pass.<name>.ir_delta_size"]
   histogram of per-run |Δ instructions| (the pass-effectiveness
   distribution, scrapeable from /metrics), and a ["pass.<name>.changed"]
   counter of runs whose instruction count moved at all — the raw
   material of the per-pass profile, the telemetry bench, and the
   fuzzer's coverage map. *)
let exec_pass ctx ~obs ~verify g st =
  let run () = Jitbull_obs.Profile.with_tag st.prof_tag (fun () -> st.pass.Pass.run ctx g) in
  match obs with
  | None ->
    run ();
    if verify then Verifier.check g
  | Some _ ->
    let before = Mir.instruction_count g in
    Obs.span obs st.span (fun () ->
        run ();
        if verify then Verifier.check g);
    let after = Mir.instruction_count g in
    Obs.add obs st.delta_size (after - before);
    Obs.observe obs ~bounds:Jitbull_obs.Metrics.size_bounds st.ir_delta_size
      (float_of_int (abs (after - before)));
    if after <> before then Obs.incr obs st.changed

(* Run without snapshotting: the engine uses this when JITBULL's database
   is empty, which is how the paper gets zero overhead in that case. *)
let run_quiet vulns ?obs ?inline_resolver ?(disabled = []) ?(verify = false) (g : Mir.t) =
  Obs.incr obs "pipeline.runs";
  let ctx = Pass.make_ctx ?inline_resolver vulns in
  List.iter
    (fun st ->
      if not (List.mem st.pass.Pass.name disabled) then exec_pass ctx ~obs ~verify g st)
    stages

(* A pass that left the graph as the last snapshot has it (a skipped
   pass always does) shares that snapshot rather than taking a copy. *)
let run vulns ?obs ?inline_resolver ?(disabled = []) ?(verify = false) (g : Mir.t) =
  Obs.incr obs "pipeline.runs";
  let ctx = Pass.make_ctx ?inline_resolver vulns in
  let last = ref (Snapshot.take g) in
  let trace = ref [ ("initial", !last) ] in
  List.iter
    (fun st ->
      if not (List.mem st.pass.Pass.name disabled) then begin
        exec_pass ctx ~obs ~verify g st;
        if not (Snapshot.matches !last g) then last := Snapshot.take g
      end;
      trace := (st.pass.Pass.name, !last) :: !trace)
    stages;
  List.rev !trace
