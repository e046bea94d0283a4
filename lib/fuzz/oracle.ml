module Engine = Jitbull_jit.Engine
module Interp = Jitbull_interp.Interp
module Vm = Jitbull_bytecode.Vm
module Compiler = Jitbull_bytecode.Compiler
module Parser = Jitbull_frontend.Parser
module Errors = Jitbull_runtime.Errors
module Pipeline = Jitbull_passes.Pipeline
module Dna = Jitbull_core.Dna
module Obs = Jitbull_obs.Obs
module Metrics = Jitbull_obs.Metrics

type verdict =
  | Agree of string
  | Mismatch of {
      interp : string;
      vm : string;
      jit : string;
    }
  | Crash of string
  | Shellcode of string
  | Pwned of string
  | Runtime_error of string

let is_exploit_signal = function
  | Crash _ | Shellcode _ | Pwned _ | Mismatch _ -> true
  | Agree _ | Runtime_error _ -> false

let verdict_summary = function
  | Agree _ -> "agree"
  | Mismatch _ -> "MISMATCH"
  | Crash m -> "CRASH: " ^ m
  | Shellcode m -> "SHELLCODE: " ^ m
  | Pwned m -> "PWNED: " ^ m
  | Runtime_error m -> "runtime error: " ^ m

let verdict_kind = function
  | Agree _ -> "agree"
  | Mismatch _ -> "mismatch"
  | Crash _ -> "crash"
  | Shellcode _ -> "shellcode"
  | Pwned _ -> "pwned"
  | Runtime_error _ -> "runtime_error"

let same_kind a b = String.equal (verdict_kind a) (verdict_kind b)

let has_pwned_line output =
  String.split_on_char '\n' output
  |> List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "PWNED")

let default_config =
  { Engine.default_config with Engine.baseline_threshold = 2; ion_threshold = 4 }

let classify ~reference ~vm_out ~jit_out =
  if has_pwned_line jit_out && not (has_pwned_line reference) then Pwned "exploit marker"
  else if String.equal reference vm_out && String.equal reference jit_out then
    Agree reference
  else Mismatch { interp = reference; vm = vm_out; jit = jit_out }

(* Allocation-heavy fuzzer mutants can exhaust the model heap on any
   tier; that is a resource limit of the input, not an engine divergence,
   so it classifies as a runtime error rather than killing the campaign. *)
let heap_exhausted = Runtime_error "heap exhausted"

(* Reference-tier step budget. AST-level mutants can accidentally build
   unbounded programs (e.g. splice a call into the callee's own body);
   since the reference tier always runs first, bounding it keeps such
   inputs classified as runtime errors instead of hanging the campaign.
   Generous: every legitimate generated/typed-IL program finishes in a
   small fraction of this. *)
let max_steps = 10_000_000

(* The engine tier, its exceptions as verdicts. *)
let jit_tier config source =
  match Engine.run_source config source with
  | exception Errors.Crash m -> Error (Crash m)
  | exception Errors.Shellcode_executed m -> Error (Shellcode m)
  | exception Errors.Heap_exhausted -> Error heap_exhausted
  | exception Errors.Type_error m -> Error (Runtime_error ("jit tier: " ^ m))
  (* a vulnerable pass's wild write can corrupt heap metadata badly
     enough that the model itself indexes out of bounds — the moral
     equivalent of a segfault, and only reachable on this tier *)
  | exception Invalid_argument m -> Error (Crash ("memory corruption: " ^ m))
  | result -> Ok result

(* The reference interpreter, the bytecode VM, then [config]'s engine,
   each tier's exceptions classified as verdicts; the engine comes back
   when it ran to the end. *)
let three_tiers config source =
  match Interp.run_source ~max_steps source with
  | exception Errors.Type_error m -> (Runtime_error m, None)
  | exception Errors.Heap_exhausted -> (heap_exhausted, None)
  | exception Interp.Timeout -> (Runtime_error "step limit", None)
  | { Interp.output = reference; _ } -> (
    match Vm.run_program (Compiler.compile (Parser.parse source)) with
    | exception Errors.Heap_exhausted -> (heap_exhausted, None)
    | exception Errors.Type_error m -> (Runtime_error ("vm tier: " ^ m), None)
    | vm_out -> (
      match jit_tier config source with
      | Error v -> (v, None)
      | Ok (jit_out, engine) -> (classify ~reference ~vm_out ~jit_out, Some engine)))

let run ?(config = default_config) source = fst (three_tiers config source)

(* ---- instrumented runs: the coverage-guided fuzzer's input ---- *)

type instrumented = {
  i_verdict : verdict;
  i_bytecode : Jitbull_bytecode.Op.program option;
  i_dnas : Dna.t list;
  i_events : string list;
}

(* Engine-event flags derived from stats + the Obs counters the engine
   and pipeline publish (pass.<name>.changed, engine.verdict.allow/
   disable/forbid). *)
let event_flags (stats : Engine.stats option) view =
  let flags = ref [] in
  let flag name = flags := name :: !flags in
  (match stats with
  | None -> ()
  | Some s ->
    if s.Engine.bailouts > 0 then flag "bailout";
    if s.Engine.deopts > 0 then flag "deopt";
    if s.Engine.nr_disjit > 0 then flag "disjit";
    if s.Engine.nr_nojit > 0 then flag "nojit";
    if s.Engine.nr_jit > 0 then flag "ion");
  let counter_flag counter name =
    match Metrics.find_counter view counter with
    | Some n when n > 0 -> flag name
    | _ -> ()
  in
  counter_flag "engine.verdict.allow" "policy:allow";
  counter_flag "engine.verdict.disable" "policy:disable";
  counter_flag "engine.verdict.forbid" "policy:forbid";
  List.iter
    (fun pass ->
      counter_flag ("pass." ^ pass ^ ".changed") ("pass-changed:" ^ pass))
    Pipeline.pass_names;
  !flags

let run_instrumented ?(config = default_config) source =
  match Parser.parse source with
  | exception _ ->
    { i_verdict = Runtime_error "parse error"; i_bytecode = None; i_dnas = []; i_events = [] }
  | prog ->
    let bc = Compiler.compile prog in
    let obs = Obs.create ~capacity:16 ~audit_capacity:8 () in
    let dnas = ref [] in
    let dnas_mu = Mutex.create () in
    let inner = config.Engine.analyzer in
    (* Wrap the configured analyzer (or a pass-through Allow) so every
       traced Ion compile also contributes its DNA to the coverage
       signal, without changing any engine decision. *)
    let analyzer ~ctx ~func_index ~name ~trace =
      let dna = Dna.extract trace in
      if Dna.nonempty_passes dna <> [] then begin
        Mutex.lock dnas_mu;
        dnas := dna :: !dnas;
        Mutex.unlock dnas_mu
      end;
      match inner with
      | Some analyze -> analyze ~ctx ~func_index ~name ~trace
      | None -> Engine.Allow
    in
    let config' =
      { config with Engine.analyzer = Some analyzer; obs = Some obs; policy_cache = None }
    in
    let verdict, engine = three_tiers config' source in
    {
      i_verdict = verdict;
      i_bytecode = Some bc;
      i_dnas = List.rev !dnas;
      i_events = event_flags (Option.map Engine.stats engine) (Obs.view (Some obs));
    }

(* ---- metamorphic invariants ---- *)

type violation = {
  mv_invariant : string;
  mv_detail : string;
}

let trunc s = if String.length s <= 160 then s else String.sub s 0 157 ^ "..."

let jit_result config source =
  match jit_tier config source with
  | Ok (out, _) -> Ok out
  | Error v -> Error (verdict_summary v)

let check_metamorphic ?(config = default_config) ?subsets ?(alt_configs = []) source =
  match Interp.run_source source with
  | exception Errors.Type_error _ -> []
  | { Interp.output = reference; _ } ->
    let violations = ref [] in
    let add inv detail =
      violations := { mv_invariant = inv; mv_detail = trunc detail } :: !violations
    in
    let expect inv = function
      | Error m -> add inv m
      | Ok out when not (String.equal out reference) ->
        add inv (Printf.sprintf "got %S, want %S" (trunc out) (trunc reference))
      | Ok _ -> ()
    in
    let base = { config with Engine.policy_cache = None } in
    let vm_out =
      try Ok (Vm.run_program (Compiler.compile (Parser.parse source)))
      with e -> Error (Printexc.to_string e)
    in
    expect "interp==vm" vm_out;
    expect "interp==jit" (jit_result base source);
    (* tier-agreement: with the native backend live (the default), the
       leg above ran generated x86-64; re-run the same configuration on
       the LIR executor so all four tiers must agree (interp == VM ==
       native == executor). Skipped when the backend cannot run here —
       the two legs would be identical. *)
    if Jitbull_native.Native.enabled () && base.Engine.native then
      expect "interp==jit[lir-executor]"
        (jit_result { base with Engine.native = false } source);
    let subsets =
      match subsets with
      | Some s -> s
      | None ->
        List.filter Pipeline.can_disable Pipeline.pass_names |> List.map (fun p -> [ p ])
    in
    List.iter
      (fun subset ->
        let analyzer ~ctx:_ ~func_index:_ ~name:_ ~trace:_ = Engine.Disable_passes subset in
        let c = { base with Engine.analyzer = Some analyzer } in
        expect
          (Printf.sprintf "disable[%s]==full" (String.concat "," subset))
          (jit_result c source))
      subsets;
    List.iter (fun (name, c) -> expect name (jit_result c source)) alt_configs;
    List.rev !violations
