(* Shared helpers for the test suite. *)

module Interp = Jitbull_interp.Interp
module Engine = Jitbull_jit.Engine
module Parser = Jitbull_frontend.Parser
module Compiler = Jitbull_bytecode.Compiler
module Vm = Jitbull_bytecode.Vm
module VC = Jitbull_passes.Vuln_config
module Audit = Jitbull_obs.Audit

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Output of the reference interpreter. *)
let interp_output src = (Interp.run_source src).Interp.output

(* Output of the bytecode VM (no JIT). *)
let vm_output src = Vm.run_program (Compiler.compile (Parser.parse src))

(* Output of the fully tiered engine (aggressive thresholds so even short
   tests reach Ion). *)
let jit_config =
  { Engine.default_config with Engine.baseline_threshold = 2; ion_threshold = 4 }

let jit_output ?(config = jit_config) src = fst (Engine.run_source config src)

(* The analyzer's own decisions in an [Obs.t]'s audit trail, oldest
   first: one [Fresh] record per analysis (policy-cache hits excluded). *)
let fresh_decisions obs =
  List.filter
    (fun (r : Audit.record) -> r.Audit.source = Audit.Fresh)
    (Audit.records (Jitbull_obs.Obs.audit obs))

(* A decision's flagged passes: the union of its matches' passes. *)
let flagged_passes (r : Audit.record) =
  List.concat_map
    (fun cm -> List.map (fun pm -> pm.Audit.pm_pass) cm.Audit.cm_passes)
    r.Audit.matches
  |> List.sort_uniq String.compare

(* Assert that all three execution tiers print the same thing. *)
let assert_tiers_agree ?(name = "tiers agree") src =
  let reference = interp_output src in
  check_string (name ^ " (vm)") reference (vm_output src);
  check_string (name ^ " (jit)") reference (jit_output src)

(* Build optimized MIR for function [idx] of [src] after warming the VM to
   collect feedback; returns the graph and the snapshot trace. *)
let optimized_mir ?(vulns = VC.none) ?(disabled = []) ~func:idx src =
  let prog = Parser.parse src in
  let bc = Compiler.compile prog in
  let vm = Vm.create bc in
  (try ignore (Vm.run vm) with _ -> ());
  let g =
    Jitbull_mir.Builder.build bc.Jitbull_bytecode.Op.funcs.(idx)
      ~feedback_row:vm.Vm.feedback.(idx)
  in
  let trace = Jitbull_passes.Pipeline.run vulns ~disabled ~verify:true g in
  (g, trace)

(* Count instructions with a given opcode name in a MIR graph. *)
let count_opcode g name =
  List.length
    (List.filter
       (fun (i : Jitbull_mir.Mir.instr) ->
         String.equal (Jitbull_mir.Mir.opcode_name i.Jitbull_mir.Mir.opcode) name)
       (Jitbull_mir.Mir.all_instructions g))

let qtest = QCheck_alcotest.to_alcotest

(* QCheck iteration counts are env-tunable: JITBULL_QCHECK_COUNT is a
   percentage applied to each site's default (100 = unchanged; nightly CI
   sets 300 for a deeper soak, a laptop smoke run can set 10). *)
let qcheck_count default =
  match Sys.getenv_opt "JITBULL_QCHECK_COUNT" with
  | None | Some "" -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some pct when pct > 0 -> max 1 (default * pct / 100)
    | _ -> default)
