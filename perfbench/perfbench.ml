(* JITBULL cost benchmark: three closed-loop, single-process workloads
   timed against an interleaved reference kernel (see README.md here).

     perfbench.exe --workload octane|compile_storm|vuln_window --seed N
                   --seconds S --trace 0|1

   A run generates its inputs from the seed, sets up (jitbulld start,
   client connect, eight VDC installs) and repeats workload rounds for
   [--seconds] (at least one round, two when traced; so [--seconds 0]
   runs exactly that many). It sets up eighteen times in all; [setup_s]
   is their median. The last line of standard output is one JSON object with the end-to-end metrics
   ([--trace 0]) or the per-layer metrics of the traced run ([--trace 1]). *)

module W = Jitbull_workloads.Workloads
module V = Jitbull_vdc.Demonstrators
module Variants = Jitbull_vdc.Variants
module VC = Jitbull_passes.Vuln_config
module Pipeline = Jitbull_passes.Pipeline
module Pass = Jitbull_passes.Pass
module Engine = Jitbull_jit.Engine
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull
module Dna = Jitbull_core.Dna
module Delta = Jitbull_core.Delta
module Interp = Jitbull_interp.Interp
module Parser = Jitbull_frontend.Parser
module Compiler = Jitbull_bytecode.Compiler
module Op = Jitbull_bytecode.Op
module Vm = Jitbull_bytecode.Vm
module Builder = Jitbull_mir.Builder
module Snapshot = Jitbull_mir.Snapshot
module Lower = Jitbull_lir.Lower
module Regalloc = Jitbull_lir.Regalloc
module Peephole = Jitbull_lir.Peephole
module Native = Jitbull_native.Native
module Generator = Jitbull_fuzz.Generator
module Obs = Jitbull_obs.Obs
module Metrics = Jitbull_obs.Metrics
module Service = Jitbull_service.Service
module Client = Jitbull_service.Client
module Proto = Jitbull_service.Proto
module Sexpr = Jitbull_util.Sexpr
module Value = Jitbull_runtime.Value

let now = Kernel.now

(* ---- command line ---- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace_mode = ref false

let usage () =
  prerr_endline
    "usage: perfbench --workload octane|compile_storm|vuln_window --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace_mode := v = "1"; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload [ "octane"; "compile_storm"; "vuln_window" ]) then usage ()

(* ---- failure tallies: counted, never asserted, so a broken build still
   finishes its run and reports how much failed ---- *)

let attempted = ref 0
let output_mismatches = ref 0
let exploit_escapes = ref 0
let spot_mismatches = ref 0
let remote_fallbacks = ref 0
let errors = ref 0

(* differences under the unprotected JIT configuration: the baseline is
   the vulnerable engine, whose injected bugs can miscompile a benign
   program (Richards with all eight). Reported, not failures. *)
let unprotected_mismatches = ref 0

let error what ex =
  incr errors;
  Printf.eprintf "perfbench: %s: %s\n%!" what (Printexc.to_string ex)

(* ---- samples ---- *)

let ks = Kernel.sampler ()

(* per (program, configuration): kernel-relative and raw sample times *)
type series = {
  mutable refs : float list;
  mutable raws : float list;
}

let series : (string * string, series) Hashtbl.t = Hashtbl.create 64
let program_order : string list ref = ref []

let record id conf ~raw ~r =
  let s =
    match Hashtbl.find_opt series (id, conf) with
    | Some s -> s
    | None ->
      if not (List.mem id !program_order) then program_order := id :: !program_order;
      let s = { refs = []; raws = [] } in
      Hashtbl.replace series (id, conf) s;
      s
  in
  s.refs <- r :: s.refs;
  s.raws <- raw :: s.raws

let programs () = List.rev !program_order

let sum_medians ?(raw = false) conf =
  List.fold_left
    (fun acc id ->
      match Hashtbl.find_opt series (id, conf) with
      | Some s -> acc +. Kernel.median (if raw then s.raws else s.refs)
      | None -> acc)
    0.0 (programs ())

let install_samples : (float * float) list ref = ref []  (* (raw, ref) *)
let setup_seconds : float list ref = ref []

(* exact counts behind false_positive_pct: protected benign runs only *)
let fp_flagged = ref 0
let fp_compiled = ref 0

(* ---- the traced run's ledger ----

   In a traced round each call the benchmark makes into a layer is timed
   and its duration charged to that layer ("self time"); the round's wall
   time minus everything charged is the unattributed remainder. Counts are
   taken from the first traced round only, so they are per round and
   repeat exactly for a seed. *)

let tracing = ref false
let counting = ref false
let round_obs : Obs.t option ref = ref None
let ledger : (string, float) Hashtbl.t = Hashtbl.create 64
let counts : (string, float) Hashtbl.t = Hashtbl.create 64
let rtts : float list ref = ref []
let harvests : float list ref = ref []

let bump tbl name v =
  Hashtbl.replace tbl name (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name))

let charge name dt = if !tracing then bump ledger name dt
let count name v = if !counting then bump counts name v

let timed name f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    let r = f () in
    charge name (now () -. t0);
    r
  end

(* remote go/no-go time spent inside the current sample *)
let verdict_seconds = ref 0.0

let timed_analyzer (a : Engine.analyzer) : Engine.analyzer =
 fun ~ctx ~func_index ~name ~trace ->
  let t0 = now () in
  let d = a ~ctx ~func_index ~name ~trace in
  let dt = now () -. t0 in
  verdict_seconds := !verdict_seconds +. dt;
  if !tracing then rtts := dt :: !rtts;
  d

(* ---- one script, from source to exit ---- *)

let run_program cfg source =
  let ast = timed "frontend.parse" (fun () -> Parser.parse source) in
  let prog = timed "bytecode.compile" (fun () -> Compiler.compile ast) in
  let e = timed "jit.create" (fun () -> Engine.create cfg prog) in
  let t0 = now () in
  let out = Engine.run e in
  (out, e, now () -. t0)

(* ---- compile replay (traced rounds) ----

   For every function a protected run sent to the Ion tier, re-drive the
   compile path through its public entry points on the engine's final
   feedback and time each call: MIR build, each pass and the snapshot
   JITBULL takes after it, DNA extraction, the DB query, LIR lowering,
   register allocation, peephole, native emission. The inline resolver
   mirrors the engine's (statically bound callees built on their own
   feedback) but cannot see which globals the program reassigns. *)

let replay_function ~vulns ~db (vm : Vm.t) idx =
  let funcs = vm.Vm.program.Op.funcs in
  let inline_resolver name =
    match Hashtbl.find_opt vm.Vm.globals name with
    | Some (Value.Function c) when c <> idx ->
      Some (Builder.build funcs.(c) ~feedback_row:vm.Vm.feedback.(c))
    | _ -> None
  in
  let g =
    timed "mir.build" (fun () -> Builder.build funcs.(idx) ~feedback_row:vm.Vm.feedback.(idx))
  in
  let ctx = Pass.make_ctx ~inline_resolver vulns in
  let snap () = timed "passes.snapshot" (fun () -> Snapshot.take g) in
  let initial = snap () in
  let after_passes =
    List.map
      (fun (p : Pass.t) ->
        timed ("passes." ^ p.Pass.name) (fun () -> p.Pass.run ctx g);
        (p.Pass.name, snap ()))
      Pipeline.passes
  in
  let dna =
    timed "core.dna_extract" (fun () -> Dna.extract (("initial", initial) :: after_passes))
  in
  count "core.subchains"
    (float_of_int
       (List.fold_left
          (fun a (_, (d : Delta.t)) -> a + Delta.total d.Delta.removed + Delta.total d.Delta.added)
          0 dna.Dna.deltas));
  ignore (timed "core.db_compare" (fun () -> Db.matching_detailed db dna));
  let lir = timed "lir.lower" (fun () -> Lower.lower g) in
  timed "lir.regalloc" (fun () -> Regalloc.allocate lir);
  ignore (timed "lir.peephole" (fun () -> Peephole.run lir));
  if Native.enabled () then timed "native.emit" (fun () -> Native.release (Native.compile lir))

let replay ~vulns ~db e =
  let vm = Engine.vm e in
  Array.iteri
    (fun idx _ ->
      match Engine.tier_of e idx with
      | Engine.Ion | Engine.Blacklisted -> (
        try replay_function ~vulns ~db vm idx with ex -> error "compile replay" ex)
      | Engine.Interpreted | Engine.Baseline -> ())
    vm.Vm.program.Op.funcs

let count_engine e =
  let s = Engine.stats e in
  count "jit.ion_compiles" (float_of_int s.Engine.ion_compiles);
  count "jit.baseline_compiles" (float_of_int s.Engine.baseline_compiles);
  count "jit.ion_functions" (float_of_int (s.Engine.nr_jit - s.Engine.nr_nojit));
  count "native.installs" (float_of_int s.Engine.native_installs);
  count "lir.peephole_removed" (float_of_int s.Engine.peephole_removed)

(* ---- samples of the three kinds of program ---- *)

type prog = {
  id : string;
  source : string;
  expected : string;  (** the reference interpreter's output *)
}

type conf = {
  cname : string;  (** "jit" or "jitbull" *)
  cfg : Engine.config;
  protected : (VC.t * Db.t) option;  (** the bugs and DB JITBULL guards with *)
}

let conf_key name = if !tracing then name ^ "+trace" else name

let mismatch conf p what =
  let unprotected = conf.protected = None in
  incr (if unprotected then unprotected_mismatches else output_mismatches);
  Printf.eprintf "perfbench: %s under %s: %s%s\n%!" p.id conf.cname what
    (if unprotected then " (unprotected engine: reported, not a failure)" else "")

let benign conf p =
  incr attempted;
  verdict_seconds := 0.0;
  let res, raw, r =
    Kernel.sample ks (fun () ->
        try Ok (run_program conf.cfg p.source) with ex -> Error ex)
  in
  record p.id (conf_key conf.cname) ~raw ~r;
  match res with
  | Error ex ->
    mismatch conf p ("raised " ^ Printexc.to_string ex)
  | Ok (out, e, run_s) -> (
    if not (String.equal out p.expected) then
      mismatch conf p "output differs from the interpreter's";
    let st = Engine.stats e in
    if conf.protected <> None then begin
      fp_flagged := !fp_flagged + st.Engine.nr_disjit + st.Engine.nr_nojit;
      fp_compiled := !fp_compiled + st.Engine.nr_jit
    end;
    let stall = st.Engine.main_stall_seconds in
    charge "exec.self" (run_s -. stall);
    charge "jit.compile_stall" (stall -. !verdict_seconds);
    charge "client.verdict" !verdict_seconds;
    match conf.protected with
    | Some (vulns, db) when !tracing ->
      count_engine e;
      replay ~vulns ~db e
    | _ -> ())

let exploit ~id ~cfg ~source ~expected =
  incr attempted;
  verdict_seconds := 0.0;
  let res, raw, r =
    Kernel.sample ks (fun () ->
        try Ok (V.run_exploit cfg source expected) with ex -> Error ex)
  in
  record id (conf_key "jitbull") ~raw ~r;
  charge "vdc.exploit" (raw -. !verdict_seconds);
  charge "client.verdict" !verdict_seconds;
  match res with
  | Ok (V.Exploited _) -> incr exploit_escapes
  | Ok V.Neutralized -> ()
  | Error ex -> error ("exploit " ^ id) ex

(* ---- set-up: jitbulld, one client, the eight VDCs ---- *)

(* the paper's DB build-up order: the four public VDCs, then the four
   reconstructed ones *)
let cve_order =
  [
    VC.CVE_2019_17026; VC.CVE_2019_9810; VC.CVE_2019_9791; VC.CVE_2019_11707;
    VC.CVE_2019_9792; VC.CVE_2019_9795; VC.CVE_2019_9813; VC.CVE_2020_26952;
  ]

let vdcs = List.map V.find cve_order
let first_n n l = List.filteri (fun i _ -> i < n) l
let all_bugs = VC.make cve_order

type env = {
  svc : Service.t;
  client : Client.t;
  svc_obs : Obs.t option;
  client_obs : Obs.t option;
}

let sync env =
  match Client.sync env.client with
  | Ok _ -> ()
  | Error m -> error "client sync" (Failure m)

(* A VDC arrives and a client is protected against it: harvest its DNA on
   an engine carrying just its bug, install the entries into jitbulld,
   sync the client's replica. One install sample. *)
let install_vdc env (d : V.t) =
  let entries, raw, r =
    Kernel.sample ks (fun () ->
        let harvested = Db.create () in
        let t0 = now () in
        ignore
          (timed "install.harvest" (fun () ->
               Db.harvest harvested ~cve:d.V.name ~vulns:(VC.make [ d.V.cve ]) d.V.source));
        if !tracing then harvests := (now () -. t0) :: !harvests;
        let entries = Db.entries harvested in
        timed "install.install" (fun () -> List.iter (Service.install env.svc) entries);
        timed "install.sync" (fun () -> sync env);
        entries)
  in
  install_samples := (raw, r) :: !install_samples;
  (entries, raw)

(* Single client, closed loop: one server domain, no subscriber thread —
   generations move only through [Client.sync], so every count repeats
   for a seed. jitbulld's own telemetry is on only in traced runs; the
   client's is always on, since it is what counts the verdicts that fell
   back to the replica. *)
let start_env () =
  let svc_obs = if !trace_mode then Some (Obs.create ()) else None in
  let client_obs = Some (Obs.create ()) in
  let svc = Service.create ~workers:1 ?obs:svc_obs ~db:(Db.create ()) ~port:0 () in
  let client =
    Client.connect ~timeout_s:60.0 ?obs:client_obs ~subscribe:false ~client_id:"perfbench"
      ~port:(Service.port svc) ()
  in
  let env = { svc; client; svc_obs; client_obs } in
  sync env;
  env

(* verdicts the server did not answer (error or timeout), so the client
   decided locally: a failure of the remote path *)
let count_fallbacks env =
  remote_fallbacks :=
    Option.value ~default:0
      (List.assoc_opt "engine.remote_fallbacks" (Obs.view env.client_obs).Metrics.v_counters)

let stop_env env =
  Client.close env.client;
  Service.stop env.svc

(* collected first, untimed, like every sample: no set-up pays for the
   garbage of the inputs or of the set-up before it *)
let setup_once () =
  Gc.full_major ();
  let t0 = now () in
  let env = start_env () in
  let started = now () -. t0 in
  let installs = List.map (fun d -> snd (install_vdc env d)) vdcs in
  setup_seconds := List.fold_left ( +. ) started installs :: !setup_seconds;
  env

let setups = 18

(* one more set-up, torn down at once, while fewer than [setups] ran *)
let extra_setup () = if List.length !setup_seconds < setups then stop_env (setup_once ())

(* the patches ship: every VDC leaves the DB and the replica resyncs *)
let patch_day env =
  timed "install.remove" (fun () ->
      List.iter (Service.remove_cve env.svc) (Db.cves (Service.db env.svc));
      sync env)

(* remote == local on this step's DB: jitbulld's verdict on each entry
   just installed against the client replica's own query *)
let spot_check env entries =
  List.iteri
    (fun i (e : Db.entry) ->
      incr attempted;
      let req =
        {
          Proto.vr_id = i;
          vr_func = e.Db.dna.Dna.func_name;
          vr_bytecode_hash = Hashtbl.hash e.Db.cve;
          vr_feedback_hash = i;
          vr_dna = Sexpr.to_string (Dna.to_sexpr e.Db.dna);
        }
      in
      let remote = (Service.decide env.svc req).Proto.vs_verdict in
      let _, local =
        Jitbull.verdict_of_matches (Db.matching (Client.replica env.client) e.Db.dna)
      in
      if remote <> local then incr spot_mismatches)
    entries

(* ---- workloads: inputs ---- *)

(* collected after each program, like every sample, so the peak heap is
   set by the largest program rather than by the seeded order *)
let reference source =
  let out = (Interp.run_source source).Interp.output in
  Gc.full_major ();
  out

let mix a b = (a * 1_000_003) + b

(* octane: the sixteen Octane analogues in a seeded order *)
let octane_inputs () =
  let rng = Random.State.make [| !seed; 0x6f63 |] in
  let a = Array.of_list W.everything in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
  |> List.map (fun (w : W.t) ->
         { id = w.W.name; source = w.W.source; expected = reference w.W.source })

let generated ~id ~seed ~funcs =
  let source =
    Generator.benign_params
      { Generator.p_seed = seed; p_funcs = funcs; p_rounds = 40; p_depth = 2 }
  in
  { id; source; expected = reference source }

(* compile_storm: 64 generated programs of 8 functions each, driven past
   the Ion threshold (32 calls) by 40 rounds; 64 rather than 40 so the
   seed moves the sum of medians by less than the noise does *)
let storm_inputs () =
  List.init 64 (fun i -> generated ~id:(Printf.sprintf "storm%02d" i) ~seed:(mix !seed i) ~funcs:8)

type step = {
  vdc : V.t;
  exploits : (string * string) list;  (** variant name, source *)
  slice : prog list;
}

(* vuln_window: per VDC k, its original and four variants, plus a seeded
   slice of three generated benign programs *)
let window_inputs () =
  List.mapi
    (fun i (d : V.t) ->
      let k = i + 1 in
      {
        vdc = d;
        exploits =
          ("original", d.V.source)
          :: List.map
               (fun kind ->
                 (Variants.kind_name kind, Variants.apply ~seed:(mix !seed k) kind d.V.source))
               Variants.all_kinds;
        slice =
          List.init 3 (fun j ->
              generated ~id:(Printf.sprintf "k%d/b%d" k j) ~seed:(mix !seed ((100 * k) + j))
                ~funcs:4);
      })
    vdcs

type inputs =
  | Paired of prog list
  | Window of step list

let sources = function
  | Paired ps -> List.map (fun p -> p.source) ps
  | Window steps ->
    List.concat_map
      (fun s -> List.map snd s.exploits @ List.map (fun p -> p.source) s.slice)
      steps

(* ---- workloads: rounds ---- *)

let jit_conf vulns =
  { cname = "jit"; cfg = { Engine.default_config with Engine.vulns }; protected = None }

(* JIT and JITBULL alternate per program, and which goes first alternates
   too, so drift between the two halves of a pair cancels *)
let pair ~flip a b = if flip then (b (); a ()) else (a (); b ())

(* octane / compile_storm: every program under JIT and under JITBULL #8,
   with a fresh policy cache per run like a fresh page load *)
let paired_round progs ~db r =
  List.iteri
    (fun i p ->
      let jb =
        {
          cname = "jitbull";
          cfg = Jitbull.config ?obs:!round_obs ~vulns:all_bugs db;
          protected = Some (all_bugs, db);
        }
      in
      pair ~flip:((i + r + !seed) land 1 = 1)
        (fun () -> benign (jit_conf all_bugs) p)
        (fun () -> benign jb p))
    progs

(* vuln_window: VDC k arrives, is installed, and the client runs VDC k's
   exploits and a benign slice with the first k bugs active, through one
   remote-verdict configuration whose policy cache lives for the whole
   window *)
let window_round env ~base steps r =
  List.iteri
    (fun i st ->
      let k = i + 1 in
      let entries, _ = install_vdc env st.vdc in
      timed "check.spot" (fun () -> spot_check env entries);
      let vulns = VC.make (first_n k cve_order) in
      let cfg = { base with Engine.vulns; obs = !round_obs } in
      List.iter
        (fun (kind, source) ->
          exploit ~id:(Printf.sprintf "k%d/%s" k kind) ~cfg ~source ~expected:st.vdc.V.expected)
        st.exploits;
      let jb = { cname = "jitbull"; cfg; protected = Some (vulns, Client.replica env.client) } in
      List.iteri
        (fun j p ->
          pair ~flip:((j + k + r + !seed) land 1 = 1)
            (fun () -> benign (jit_conf vulns) p)
            (fun () -> benign jb p))
        st.slice)
    steps;
  patch_day env

(* ---- the measurement loop ---- *)

let traced_rounds = ref 0
let traced_wall = ref 0.0
let rounds_done = ref 0

let flat (v : Metrics.view) =
  List.map (fun (n, x) -> (n, float_of_int x)) v.Metrics.v_counters
  @ List.concat_map
      (fun (h : Metrics.histogram_view) ->
        [
          (h.Metrics.hv_name ^ ".sum", h.Metrics.hv_sum);
          (h.Metrics.hv_name ^ ".count", float_of_int h.Metrics.hv_count);
        ])
      v.Metrics.v_histograms

let service_view env = flat (Obs.view env.svc_obs) @ flat (Obs.view env.client_obs)

(* In a traced run, rounds alternate untraced / traced, so the tracing
   overhead is measured in the same process. *)
let measure ?(between = ignore) env round =
  let deadline = now () +. !seconds in
  let min_rounds = if !trace_mode then 2 else 1 in
  let last = ref 0.0 in
  let continue () = !rounds_done < min_rounds || now () +. (0.5 *. !last) < deadline in
  while continue () do
    let r = !rounds_done in
    tracing := !trace_mode && r mod 2 = 1;
    counting := !tracing && !traced_rounds = 0;
    round_obs := if !tracing then Some (Obs.create ()) else None;
    let before = service_view env in
    let k0 = ks.Kernel.kernel_seconds and g0 = ks.Kernel.gc_seconds in
    let t0 = now () in
    round r;
    let wall = now () -. t0 in
    if !tracing then begin
      charge "ref.kernel" (ks.Kernel.kernel_seconds -. k0);
      charge "ref.gc" (ks.Kernel.gc_seconds -. g0);
      traced_wall := !traced_wall +. wall;
      incr traced_rounds;
      List.iter (fun (n, v) -> count n v) (flat (Obs.view !round_obs));
      List.iter
        (fun (n, v) -> count n (v -. Option.value ~default:0.0 (List.assoc_opt n before)))
        (service_view env)
    end;
    tracing := false;
    counting := false;
    last := wall;
    incr rounds_done;
    between ()
  done

(* ---- results ---- *)

let kernel_median () = Kernel.median ks.Kernel.kernels

let overhead_ratio () =
  Kernel.geomean
    (List.filter_map
       (fun id ->
         match (Hashtbl.find_opt series (id, "jitbull"), Hashtbl.find_opt series (id, "jit")) with
         | Some a, Some b -> Some (Kernel.median a.refs /. Kernel.median b.refs)
         | _ -> None)
       (programs ()))

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let end_to_end () =
  [
    ("setup_s", Kernel.median !setup_seconds, "s");
    ("jitbull_ref", sum_medians "jitbull", "ref");
    ("jit_ref", sum_medians "jit", "ref");
    ("overhead_ratio", overhead_ratio (), "ratio");
    ( "false_positive_pct",
      100.0 *. float_of_int !fp_flagged /. float_of_int (max 1 !fp_compiled),
      "%" );
    ("install_ref", Kernel.median (List.map snd !install_samples), "ref");
    ("peak_heap_mb", heap_mb (), "MB");
  ]

let accounted_layers =
  [ "ref.kernel"; "ref.gc"; "frontend.parse"; "bytecode.compile"; "jit.create"; "exec.self";
    "jit.compile_stall"; "client.verdict"; "vdc.exploit"; "mir.build" ]
  @ List.map (fun p -> "passes." ^ p) Pipeline.pass_names
  @ [ "passes.snapshot"; "core.dna_extract"; "core.db_compare"; "lir.lower"; "lir.regalloc";
      "lir.peephole"; "native.emit"; "install.harvest"; "install.install"; "install.sync";
      "install.remove"; "check.spot" ]

let per_layer () =
  let kmed = kernel_median () in
  let rounds = float_of_int (max 1 !traced_rounds) in
  let self l = Option.value ~default:0.0 (Hashtbl.find_opt ledger l) /. rounds /. kmed in
  let c n = Option.value ~default:0.0 (Hashtbl.find_opt counts n) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let wall = !traced_wall /. rounds /. kmed in
  let attributed = List.fold_left (fun a l -> a +. self l) 0.0 accounted_layers in
  List.map (fun l -> (l ^ "_ref", self l, "ref")) accounted_layers
  @ [
      ("unattributed_ref", wall -. attributed, "ref");
      ("trace.wall_ref", wall, "ref");
      ("trace.overhead_ref", sum_medians "jitbull+trace" -. sum_medians "jitbull", "ref");
      ("vm.calls", c "vm.calls", "count");
      ("vm.dispatch.interp", c "vm.dispatch.interp", "count");
      ("vm.dispatch.jit", c "vm.dispatch.jit", "count");
      ("native.install_share", ratio (c "native.installs") (c "jit.ion_functions"), "ratio");
    ]
  @ List.map
      (fun r ->
        ( "native.exits_per_call." ^ r,
          ratio (c ("native.exits_total." ^ r)) (c "vm.dispatch.jit"),
          "ratio" ))
      [ "return"; "hostop"; "bailout"; "test" ]
  @ [ ("native.code_bytes", c "native.code_bytes", "bytes") ]
  @ List.map
      (fun p -> ("passes." ^ p ^ ".delta_size", c ("pass." ^ p ^ ".delta_size"), "count"))
      Pipeline.pass_names
  @ [
      ("core.subchains", c "core.subchains", "count");
      ("comparator.pairs", c "comparator.prefilter_candidates", "count");
      ( "comparator.prefilter_hit_ratio",
        ratio (c "comparator.prefilter_hits") (c "comparator.prefilter_candidates"),
        "ratio" );
      ("core.db_harvest_ref", Kernel.median !harvests /. kmed, "ref");
      ("jit.ion_compiles", c "jit.ion_compiles", "count");
      ("jit.recompiles", c "engine.recompiles", "count");
      ("jit.baseline_compiles", c "jit.baseline_compiles", "count");
      ( "policy.cache_hit_ratio",
        ratio (c "policy.cache_hits") (c "policy.cache_hits" +. c "policy.cache_misses"),
        "ratio" );
      ("lir.peephole_removed", c "lir.peephole_removed", "count");
      ("service.verdict_rtt_p50_ref", Kernel.quantile !rtts 0.5 /. kmed, "ref");
      ("service.verdict_rtt_p99_ref", Kernel.quantile !rtts 0.99 /. kmed, "ref");
      ("service.requests", c "service.requests_total", "count");
      ( "service.batch_size",
        ratio (c "service.batch_size.sum") (c "service.batch_size.count"),
        "count" );
      ( "service.cache_hit_ratio",
        ratio (c "service.cache_hits") (c "service.cache_hits" +. c "service.cache_misses"),
        "ratio" );
    ]

(* ---- report ---- *)

let print_report () =
  let kmed = kernel_median () in
  Printf.printf "reference kernel: %s s per run (%d interpreter steps, %d loop iterations)\n"
    (Kernel.describe ks.Kernel.kernels) Kernel.steps Kernel.loop_iters;
  Printf.printf "  interpreter half %s s, loop half %s s\n" (Kernel.describe !Kernel.interp_times)
    (Kernel.describe !Kernel.loop_times);
  Printf.printf "rounds: %d%s\n" !rounds_done
    (if !trace_mode then Printf.sprintf " (%d traced)" !traced_rounds else "");
  let conf_names =
    if !trace_mode then [ "jit"; "jitbull"; "jitbull+trace" ] else [ "jit"; "jitbull" ]
  in
  List.iter
    (fun id ->
      List.iter
        (fun conf ->
          match Hashtbl.find_opt series (id, conf) with
          | Some s ->
            Printf.printf "  %-22s %-13s %s ref, raw median %.4f s\n" id conf
              (Kernel.describe s.refs) (Kernel.median s.raws)
          | None -> ())
        conf_names)
    (programs ());
  List.iter
    (fun conf ->
      Printf.printf "%s: %.4f ref (sum of per-program medians; raw %.4f s)\n" conf
        (sum_medians conf) (sum_medians ~raw:true conf))
    conf_names;
  Printf.printf "install: %s ref, raw median %.4f s\n"
    (Kernel.describe (List.map snd !install_samples))
    (Kernel.median (List.map fst !install_samples));
  Printf.printf "setup: %s s\n" (Kernel.describe !setup_seconds);
  Printf.printf
    "caveat: raw seconds are printed so host drift stays visible and are not gated; on a \
     shared 2-core host a fixed integer loop ranged 37-95 ms within one minute. This run's \
     kernel median: %.5f s.\n"
    kmed;
  Printf.printf
    "checks: %d attempted, %d output mismatches, %d exploit escapes, %d remote/local \
     mismatches, %d remote fallbacks, %d errors; %d output differences under the unprotected \
     JIT (not failures)\n"
    !attempted !output_mismatches !exploit_escapes !spot_mismatches !remote_fallbacks !errors
    !unprotected_mismatches;
  if !trace_mode then begin
    let rounds = float_of_int (max 1 !traced_rounds) in
    let wall = !traced_wall /. rounds in
    Printf.printf "traced round: %.4f s wall; per-layer self time (ref = kernel runs):\n" wall;
    let total = ref 0.0 in
    List.iter
      (fun l ->
        let s = Option.value ~default:0.0 (Hashtbl.find_opt ledger l) /. rounds in
        total := !total +. s;
        if s > 0.0 then
          Printf.printf "  %-28s %10.4f ref %9.4f s %5.1f%%\n" l (s /. kmed) s (100.0 *. s /. wall))
      accounted_layers;
    Printf.printf "  %-28s %10.4f ref %9.4f s %5.1f%%\n" "unattributed" ((wall -. !total) /. kmed)
      (wall -. !total) (100.0 *. (wall -. !total) /. wall);
    Printf.printf "remote verdicts: %s s\n" (Kernel.describe !rtts)
  end

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit_result metrics =
  let failed =
    !output_mismatches + !exploit_escapes + !spot_mismatches + !remote_fallbacks + !errors
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (max 1 !attempted) failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
          metrics))

let () =
  parse_args ();
  Host.print ();
  (* inputs and reference outputs exist before any timer starts *)
  let inputs =
    match !workload with
    | "octane" -> Paired (octane_inputs ())
    | "compile_storm" -> Paired (storm_inputs ())
    | _ -> Window (window_inputs ())
  in
  Printf.printf "workload %s seed %d: %d programs, input digest %s\n%!" !workload !seed
    (List.length (sources inputs))
    (Digest.to_hex (Digest.string (String.concat "\000" (sources inputs))));
  (* one set-up before the first round; the others are spread over the run,
     two between rounds, so they sample the host across the run and not
     only at its start *)
  let env = setup_once () in
  let between () = extra_setup (); extra_setup () in
  (match inputs with
  | Paired progs ->
    (* these workloads analyze in-process against the synced replica; the
       service is stopped so no idle server domain joins their GCs *)
    stop_env env;
    measure ~between env (paired_round progs ~db:(Client.replica env.client))
  | Window steps ->
    patch_day env;
    let base = Client.engine_config env.client ~vulns:VC.none () in
    let base = { base with Engine.analyzer = Option.map timed_analyzer base.Engine.analyzer } in
    measure ~between env (window_round env ~base steps);
    count_fallbacks env;
    stop_env env);
  for _ = 2 to setups do extra_setup () done;
  print_report ();
  emit_result (if !trace_mode then per_layer () else end_to_end ())
