module Engine = Jitbull_jit.Engine
module Pipeline = Jitbull_passes.Pipeline
module Obs = Jitbull_obs.Obs
module Jsonx = Jitbull_obs.Jsonx

(* Sampling-profiler frame for the DB comparison (the go/no-go cost). *)
let prof_comparator = Jitbull_obs.Profile.tag "comparator"

let verdict_name = function
  | `Allow -> "allow"
  | `Disable _ -> "disable"
  | `Forbid -> "forbid"

module Audit = Jitbull_obs.Audit
module Snapshot = Jitbull_mir.Snapshot

let audit_verdict = function
  | `Allow -> Audit.Allow
  | `Disable ps -> Audit.Disable ps
  | `Forbid -> Audit.Forbid

(* sub-chain key → count, rendered to strings and sorted by them *)
let chain_strings chains =
  List.map (fun (k, c) -> (Delta.key_to_string k, c)) chains
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let audit_matches detailed =
  List.map
    (fun (cve, mds) ->
      {
        Audit.cm_cve = cve;
        cm_passes =
          List.map
            (fun (md : Comparator.match_detail) ->
              {
                Audit.pm_pass = md.Comparator.md_pass;
                pm_side =
                  (match md.Comparator.md_side with
                  | `Removed -> "removed"
                  | `Added -> "added");
                pm_eq_chains = md.Comparator.md_eq_chains;
                pm_max_eq_chains = md.Comparator.md_max_eq_chains;
                pm_chains = chain_strings (Lazy.force md.Comparator.md_common);
              })
            mds;
      })
    detailed

(* ---- explain capture: summarize the snapshot trace into an IR diff ---- *)

let opcode_multiset (s : Snapshot.t) =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun op -> Hashtbl.replace tbl op (1 + Option.value ~default:0 (Hashtbl.find_opt tbl op)))
    s.Snapshot.ops;
  tbl

let opcode_multiset_diff a b =
  Hashtbl.fold
    (fun k ca acc ->
      let cb = Option.value ~default:0 (Hashtbl.find_opt b k) in
      if ca > cb then (Snapshot.opcode_name k, ca - cb) :: acc else acc)
    a []
  |> List.sort (fun (x, _) (y, _) -> String.compare x y)

(* One [Audit.pass_diff] per pass that changed the IR: instruction and
   block counts from adjacent snapshots, the opcode multiset diff, and
   the Δ sides the comparator scored (shared with [dna], so capture never
   re-extracts sub-chains). A snapshot the pipeline shared with the pass
   before changed nothing, and costs nothing here. *)
let capture_diff ~(trace : (string * Snapshot.t) list) ~(dna : Dna.t) =
  match trace with
  | [] ->
    {
      Audit.cd_func = dna.Dna.func_name;
      cd_total_passes = 0;
      cd_passes = [];
      cd_capture_seconds = 0.0;
    }
  | (_, first) :: rest ->
    let prev = ref first in
    let prev_ops = ref (opcode_multiset first) in
    let passes =
      List.filter_map
        (fun (pass, (snap : Snapshot.t)) ->
          if snap == !prev then None
          else
            let ops = opcode_multiset snap in
            let chains_added, chains_removed =
              match List.assoc_opt pass dna.Dna.deltas with
              | Some (d : Delta.t) ->
                ( chain_strings (List.of_seq (Hashtbl.to_seq d.Delta.added)),
                  chain_strings (List.of_seq (Hashtbl.to_seq d.Delta.removed)) )
              | None -> ([], [])
            in
            let pd =
              {
                Audit.pd_pass = pass;
                pd_instrs_before = Snapshot.entry_count !prev;
                pd_instrs_after = Snapshot.entry_count snap;
                pd_blocks_before = !prev.Snapshot.n_blocks;
                pd_blocks_after = snap.Snapshot.n_blocks;
                pd_opcodes_added = opcode_multiset_diff ops !prev_ops;
                pd_opcodes_removed = opcode_multiset_diff !prev_ops ops;
                pd_chains_added = chains_added;
                pd_chains_removed = chains_removed;
              }
            in
            prev := snap;
            prev_ops := ops;
            if
              pd.Audit.pd_instrs_before = pd.Audit.pd_instrs_after
              && pd.Audit.pd_blocks_before = pd.Audit.pd_blocks_after
              && pd.Audit.pd_opcodes_added = []
              && pd.Audit.pd_opcodes_removed = []
              && chains_added = [] && chains_removed = []
            then None
            else Some pd)
        rest
    in
    {
      Audit.cd_func = dna.Dna.func_name;
      cd_total_passes = List.length rest;
      cd_passes = passes;
      cd_capture_seconds = 0.0;
    }

(* The go/no-go rule on a query's matches, shared by the in-process
   analyzer and [Service.decide]: the dangerous-pass union in pipeline
   order, and the verdict it implies. *)
let verdict_of_matches matched =
  let dangerous =
    List.filter
      (fun p -> List.exists (fun (_, ps) -> List.mem p ps) matched)
      Pipeline.pass_names
  in
  let verdict =
    if dangerous = [] then `Allow
    else if List.for_all Pipeline.can_disable dangerous then `Disable dangerous
    else `Forbid
  in
  (dangerous, verdict)

(* ---- the analyzer's two steps: extract, then query ---- *)

type extraction = {
  x_dna : Dna.t;
  x_posted_generation : int option;
}

(* Posting-aware unless explain capture wants every pass's chains for
   /explain. *)
let extract ?obs (db : Db.t) trace =
  Obs.span obs "dna_extract" (fun () ->
      if Option.fold ~none:false ~some:Obs.explain obs then { x_dna = Dna.extract trace; x_posted_generation = None }
      else
        let g, only = Db.posted db in
        { x_dna = Dna.extract ~only trace; x_posted_generation = Some g })

let query ?params ?obs (db : Db.t) ~trace x =
  let compare dna =
    Obs.span obs
      ~fields:[ ("entries", Jsonx.Int (Db.size db)) ]
      "db_compare"
      (fun () ->
        Jitbull_obs.Profile.with_tag prof_comparator @@ fun () ->
        Db.matching_detailed ?params ?obs db dna)
  in
  let q = compare x.x_dna in
  match x.x_posted_generation with
  | Some g when g <> q.Db.q_generation ->
    (* a DB write landed between the posted-set read and the query and may
       have posted a pass this DNA left empty; writes only add postings,
       so one full re-extraction against the newer DB closes the race *)
    let dna = Obs.span obs "dna_extract" (fun () -> Dna.extract trace) in
    (dna, compare dna)
  | _ -> (x.x_dna, q)

let analyzer ?params (db : Db.t) : Engine.analyzer =
 fun ~ctx ~func_index ~name ~trace ->
  let obs = ctx.Engine.cc_obs in
  (* the whole go/no-go decision is one [policy_decide] span whose fields
     carry the verdict and the matched CVE → pass evidence *)
  let matched_ref = ref [] in
  let dangerous_ref = ref [] in
  let dna_ref = ref { Dna.func_name = name; deltas = [] } in
  let query_ref =
    ref
      {
        Db.q_matches = [];
        q_prefilter_candidates = 0;
        q_prefilter_hits = 0;
        q_generation = 0;
        q_size = 0;
      }
  in
  let verdict_fields verdict =
    [
      ("verdict", Jsonx.String (verdict_name verdict));
      ("passes", Jsonx.List (List.map (fun p -> Jsonx.String p) !dangerous_ref));
      ( "matched",
        Jsonx.Assoc
          (List.map
             (fun (cve, ps) -> (cve, Jsonx.List (List.map (fun p -> Jsonx.String p) ps)))
             !matched_ref) );
    ]
  in
  let t0 = Obs.now obs in
  let verdict =
    Obs.span obs
      ~fields:[ ("func", Jsonx.String name) ]
      ~fields_of:verdict_fields "policy_decide"
      (fun () ->
        let dna, query = query ?params ?obs db ~trace (extract ?obs db trace) in
        dna_ref := dna;
        query_ref := query;
        let matched = Db.drop_details query.Db.q_matches in
        matched_ref := matched;
        let dangerous, verdict = verdict_of_matches matched in
        dangerous_ref := dangerous;
        Obs.incr obs ("policy." ^ verdict_name verdict);
        verdict)
  in
  (match obs with
  | Some o ->
    let q = !query_ref in
    let p = Option.value ~default:Comparator.default_params params in
    (* the diff rides in the record, so it is appended, streamed and
       evicted with it *)
    let ir_diff =
      if not (Obs.explain o) then None
      else begin
        let t0c = Obs.now obs in
        let d = capture_diff ~trace ~dna:!dna_ref in
        let dt = Float.max 0.0 (Obs.now obs -. t0c) in
        Obs.observe obs "explain.capture_seconds" dt;
        Some { d with Audit.cd_capture_seconds = dt }
      end
    in
    ignore
      (Audit.append (Obs.audit o) ?ir_diff ~func_name:name ~func_index
         ~bytecode_hash:ctx.Engine.cc_bytecode_hash
         ~feedback_hash:ctx.Engine.cc_feedback_hash
         ~verdict:(audit_verdict verdict)
         ~matches:(audit_matches q.Db.q_matches)
         ~thr:p.Comparator.thr ~ratio:p.Comparator.ratio
         ~prefilter_candidates:q.Db.q_prefilter_candidates
         ~prefilter_hits:q.Db.q_prefilter_hits
         ~db_generation:q.Db.q_generation ~db_size:q.Db.q_size
         ~source:Audit.Fresh
         ~duration:(Float.max 0.0 (Obs.now obs -. t0))
         ())
  | None -> ());
  match verdict with
  | `Allow -> Engine.Allow
  | `Disable passes -> Engine.Disable_passes passes
  | `Forbid -> Engine.Forbid_jit

let config ?params ?obs ~vulns (db : Db.t) : Engine.config =
  let analyzer, policy_cache =
    if Db.is_empty db then (None, None)
    else
      ( Some (analyzer ?params db),
        Some (Engine.Policy_cache.create ~generation:(fun () -> Db.generation db) ()) )
  in
  { Engine.default_config with Engine.vulns; analyzer; obs; policy_cache }
