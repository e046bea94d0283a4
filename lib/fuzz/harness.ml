module Engine = Jitbull_jit.Engine
module Db = Jitbull_core.Db
module VC = Jitbull_passes.Vuln_config
module Demonstrators = Jitbull_vdc.Demonstrators
module Prng = Jitbull_util.Prng

type finding = {
  seed : int;
  source : string;
  verdict : Oracle.verdict;
}

type report = {
  total : int;
  agreements : int;
  signals : finding list;
}

let campaign ~profile ~seeds ?config () =
  let generate seed =
    match profile with
    | `Benign -> Generator.benign ~seed
    | `Aggressive -> Generator.aggressive ~seed
  in
  let total = ref 0 in
  let agreements = ref 0 in
  let signals = ref [] in
  List.iter
    (fun seed ->
      incr total;
      let source = generate seed in
      let verdict = Oracle.run ?config source in
      if Oracle.is_exploit_signal verdict then signals := { seed; source; verdict } :: !signals
      else
        match verdict with
        | Oracle.Agree _ -> incr agreements
        | _ -> ())
    seeds;
  { total = !total; agreements = !agreements; signals = List.rev !signals }

let auto_harvest ~vulns ~db findings =
  List.fold_left
    (fun acc (f : finding) ->
      acc + Db.harvest db ~cve:(Printf.sprintf "FUZZ-%d" f.seed) ~vulns f.source)
    0 findings

(* ---- coverage-guided campaigns ---- *)

type curve_point = {
  cp_execs : int;
  cp_coverage : int;
}

type yield = {
  y_mutants : int;
  y_valid : int;
}

let yield_ratio y =
  if y.y_mutants = 0 then 1.0 else float_of_int y.y_valid /. float_of_int y.y_mutants

type guided = {
  g_execs : int;
  g_signals : finding list;
  g_coverage : int;
  g_curve : curve_point list;
  g_corpus_size : int;
  g_seconds : float;
  g_cve_execs : (VC.cve * int) list;
  g_yield : yield;
}

let vdc_seed_sources () =
  List.map (fun (d : Demonstrators.t) -> d.Demonstrators.source) Demonstrators.all

let default_seed_sources () =
  List.init 4 (fun i -> Generator.benign ~seed:i)
  @ List.init 8 (fun i -> Generator.aggressive ~seed:i)
  @ vdc_seed_sources ()

(* Does [source] exploit an engine where {e only} [cve] is live? Probing
   with the analyzer and cache stripped keeps attribution independent of
   whatever mitigation the campaign config carries. *)
let exploits_single_cve ~base cve source =
  let config =
    {
      base with
      Engine.vulns = VC.make [ cve ];
      analyzer = None;
      policy_cache = None;
      obs = None;
    }
  in
  Oracle.is_exploit_signal (Oracle.run ~config source)

let guided_campaign ?(config = Oracle.default_config) ?corpus ?coverage ?(rng_seed = 0)
    ?time_budget ?seed_sources ?(mutation = true) ?(track_cves = false) ~max_execs () =
  let cov = match coverage with Some c -> c | None -> Coverage.create () in
  let corpus = match corpus with Some c -> c | None -> Corpus.create () in
  let rng = Prng.create (0x6a21b011 + rng_seed) in
  let obs = config.Engine.obs in
  let t0 = Unix.gettimeofday () in
  (* inputs a previous campaign persisted: replay them to repopulate the
     coverage map without re-admitting them *)
  let replay =
    ref (List.map (fun e -> (e.Corpus.source, e.Corpus.il)) (Corpus.entries corpus))
  in
  let il_seeds = if mutation then Il.seeds () else [] in
  let seeds =
    let plain = match seed_sources with Some l -> l | None -> default_seed_sources () in
    ref
      (List.map (fun s -> (s, None)) plain
      @ List.map (fun p -> (Il.to_source p, Some (Il.serialize p))) il_seeds)
  in
  let il_seed_pool = Array.of_list il_seeds in
  (* mutation parent or donor: a gain-weighted IL-carrying corpus entry
     (only the drawn entry is parsed), or a hand-written IL seed when the
     corpus has none yet *)
  let pick_prog () =
    let drawn =
      match Corpus.pick rng corpus with
      | Some { Corpus.il = Some text; _ } -> Result.to_option (Il.parse text)
      | _ -> None
    in
    match drawn with
    | Some p -> p
    | None -> il_seed_pool.(Prng.int rng (Array.length il_seed_pool))
  in
  let execs = ref 0 in
  let signals = ref [] in
  let curve = ref [] in
  let mutants = ref 0 in
  let valid = ref 0 in
  let unattributed = ref (if track_cves then VC.all else []) in
  let cve_execs = ref [] in
  let within_budget () =
    !execs < max_execs
    &&
    match time_budget with
    | None -> true
    | Some s -> Unix.gettimeofday () -. t0 < s
  in
  while within_budget () do
    let source, il_payload, family =
      match !replay with
      | (s, payload) :: rest ->
        replay := rest;
        (s, payload, `Replay)
      | [] -> (
        match !seeds with
        | (s, payload) :: rest ->
          seeds := rest;
          (s, payload, `Seed)
        | [] ->
          if mutation then begin
            let parent = pick_prog () in
            match Il_mutate.mutate rng ~donor:(pick_prog ()) parent with
            | Some m -> (Il.to_source m, Some (Il.serialize m), `Mutant)
            | None -> (Il.to_source parent, Some (Il.serialize parent), `Seed)
          end
          else (Generator.aggressive ~seed:!execs, None, `Seed))
    in
    incr execs;
    let inst = Oracle.run_instrumented ~config source in
    if family = `Mutant then begin
      (* mutation yield: a mutant is "valid" when it executes cleanly on
         the reference tier — the property the typed IL guarantees by
         construction modulo OOB-driven [undefined] propagation *)
      incr mutants;
      (match inst.Oracle.i_verdict with Oracle.Runtime_error _ -> () | _ -> incr valid);
      Jitbull_obs.Obs.incr obs "fuzz.il_mutants";
      Jitbull_obs.Obs.set_gauge obs "fuzz.valid_ratio"
        (yield_ratio { y_mutants = !mutants; y_valid = !valid })
    end;
    let gained = Coverage.add_features cov (Coverage.features_of_run inst) in
    if gained > 0 then begin
      curve := { cp_execs = !execs; cp_coverage = Coverage.count cov } :: !curve;
      if family <> `Replay then
        ignore (Corpus.add corpus ?il:il_payload ~gain:gained source)
    end;
    if Oracle.is_exploit_signal inst.Oracle.i_verdict then begin
      signals := { seed = !execs; source; verdict = inst.Oracle.i_verdict } :: !signals;
      if !unattributed <> [] then begin
        let hit = List.filter (fun cve -> exploits_single_cve ~base:config cve source) !unattributed in
        unattributed := List.filter (fun c -> not (List.mem c hit)) !unattributed;
        List.iter (fun c -> cve_execs := (c, !execs) :: !cve_execs) hit
      end
    end
  done;
  {
    g_execs = !execs;
    g_signals = List.rev !signals;
    g_coverage = Coverage.count cov;
    g_curve = List.rev !curve;
    g_corpus_size = Corpus.length corpus;
    g_seconds = Unix.gettimeofday () -. t0;
    g_cve_execs = List.rev !cve_execs;
    g_yield = { y_mutants = !mutants; y_valid = !valid };
  }

let blind_sweep ?(config = Oracle.default_config) ?(track_cves = false) ~max_execs () =
  guided_campaign ~config ~mutation:false ~seed_sources:[] ~track_cves ~max_execs ()

let unharvested ~config findings =
  List.filter
    (fun (f : finding) -> Oracle.is_exploit_signal (Oracle.run ~config f.source))
    findings
