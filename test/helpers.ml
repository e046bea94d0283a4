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

(* the analyzer's arguments at every Ion compile of one run of [source] *)
let compiles ~vulns source =
  let out = ref [] in
  let analyzer ~ctx ~func_index ~name ~trace =
    out := (ctx, func_index, name, trace) :: !out;
    Engine.Allow
  in
  (try
     ignore
       (Engine.run_source
          { Engine.default_config with Engine.vulns; analyzer = Some analyzer }
          source)
   with
  | Jitbull_runtime.Errors.Crash _ | Jitbull_runtime.Errors.Shellcode_executed _
  | Jitbull_runtime.Errors.Type_error _ ->
    ());
  List.rev !out

let qtest = QCheck_alcotest.to_alcotest

(* Helper-domain count for the tests that run the background compile pool
   or otherwise go multi-domain; CI runs the suite at JITBULL_TEST_JOBS=1
   and 2. 0 is clamped to 1: these tests exist to exercise the pool, and
   jobs=0 semantics (no pool at all) are what every other test runs
   under. *)
let test_jobs =
  match Sys.getenv_opt "JITBULL_TEST_JOBS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 2)
  | None -> 2

let with_pool f =
  let pool = Jitbull_jit.Compile_queue.create ~jobs:test_jobs () in
  Fun.protect ~finally:(fun () -> Jitbull_jit.Compile_queue.shutdown pool) (fun () -> f pool)

(* [f] with Ion compiles run inline, then on a [test_jobs]-wide pool:
   the same compile job on the main thread and on helper domains. *)
let in_both_compile_modes f = (f None, with_pool (fun pool -> f (Some pool)))

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

(* Strings built from the bytes the text codecs (Sexpr, Jsonx) treat
   specially: blanks, delimiters, quote, backslash, comment, control
   bytes, multi-byte UTF-8, and the empty string. *)
let awkward_string_gen =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (3, map (String.make 1) printable);
        ( 3,
          oneofl
            [ " "; "\t"; "\n"; "\r"; "("; ")"; "\""; "\\"; ";"; "\\n"; "\"\"" ] );
        (2, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 31));
        (2, oneofl [ "\xc3\xa9"; "\xe2\x86\x92"; "\xf0\x9d\x84\x9e"; "\x7f" ]);
      ]
  in
  map (String.concat "") (list_size (int_range 0 6) piece)
