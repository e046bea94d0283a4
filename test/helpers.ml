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

(* [Snapshot.take g] read straight off the MIR: function name, block
   count, and per instruction in block order its number, opcode name and
   operand numbers (dangling ones included). *)
let mir_entries (g : Jitbull_mir.Mir.t) =
  let module Mir = Jitbull_mir.Mir in
  ( g.Mir.name,
    List.length g.Mir.blocks,
    List.map
      (fun (i : Mir.instr) ->
        ( i.Mir.num,
          Mir.opcode_name i.Mir.opcode,
          List.map (fun (o : Mir.instr) -> o.Mir.num) i.Mir.operands ))
      (Mir.all_instructions g) )

let snapshot_matches_mir g (s : Jitbull_mir.Snapshot.t) =
  let module Snapshot = Jitbull_mir.Snapshot in
  mir_entries g = (s.Snapshot.func_name, s.Snapshot.n_blocks, Snapshot.entries s)

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

(* The passes JITBULL's recompile disables in the golden and oracle
   tests: the cleanup passes most DB entries flag. *)
let recompile_disabled = [ "applytypes"; "gvn"; "dce" ]

(* The golden corpus: the eight demonstrators and sixteen generated
   programs, as (name, source). *)
let golden_programs () =
  List.map
    (fun (d : Jitbull_vdc.Demonstrators.t) ->
      (d.Jitbull_vdc.Demonstrators.name, d.Jitbull_vdc.Demonstrators.source))
    Jitbull_vdc.Demonstrators.all
  @ List.init 16 (fun i ->
        ( Printf.sprintf "benign%02d" i,
          Jitbull_fuzz.Generator.benign_params
            { Jitbull_fuzz.Generator.p_seed = i; p_funcs = 8; p_rounds = 40; p_depth = 2 } ))

(* Domains spawned by the tests that exercise cross-domain safety (the
   tracer, the DB, the extractor's per-domain scratch). *)
let test_domains = 2

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

(* ---- the compile path, as the engine's tiers drive it ---- *)

(* Lowering, register allocation and peephole: what both tiers run on
   the MIR they admit. *)
let lower_mir g =
  let lir = Jitbull_lir.Lower.lower g in
  Jitbull_lir.Regalloc.allocate lir;
  ignore (Jitbull_lir.Peephole.run lir);
  lir

(* The baseline tier's compile: MIR built on fresh feedback (the tier
   does not speculate), the mandatory structural passes only. *)
let baseline_lir vulns (func : Jitbull_bytecode.Op.func) ~n_sites =
  let feedback_row = Array.init n_sites (fun _ -> Jitbull_bytecode.Feedback.fresh_site ()) in
  let g = Jitbull_mir.Builder.build func ~feedback_row in
  let split = Jitbull_passes.Split_critical_edges.pass in
  split.Jitbull_passes.Pass.run (Jitbull_passes.Pass.make_ctx vulns) g;
  Jitbull_mir.Mir.renumber g;
  lower_mir g

(* The compiles of one function, on the feedback its program left on
   the VM: [baseline ()] is the baseline tier's, [ion disabled] the Ion
   tier's with the passes [disabled] off ([recompile_disabled] is the
   go/no-go recompile); each call compiles afresh. *)
type compiles = {
  baseline : unit -> Jitbull_lir.Lir.func;
  ion : string list -> Jitbull_lir.Lir.func;
}

(* One [compiles] per function of [source], after one VM run of it. *)
let compiles_of vulns source =
  let module Value = Jitbull_runtime.Value in
  let bc = Compiler.compile (Parser.parse source) in
  let vm = Vm.create bc in
  (try ignore (Vm.run vm) with _ -> ());
  let funcs = bc.Jitbull_bytecode.Op.funcs in
  let build idx = Jitbull_mir.Builder.build funcs.(idx) ~feedback_row:vm.Vm.feedback.(idx) in
  Array.mapi
    (fun idx func ->
      let inline_resolver callee =
        match Hashtbl.find_opt vm.Vm.globals callee with
        | Some (Value.Function c) when c <> idx -> Some (build c)
        | _ -> None
      in
      {
        baseline =
          (fun () -> baseline_lir vulns func ~n_sites:(Array.length vm.Vm.feedback.(idx)));
        ion =
          (fun disabled ->
            let g = build idx in
            Jitbull_passes.Pipeline.run_quiet vulns ~inline_resolver ~disabled g;
            lower_mir g);
      })
    funcs
