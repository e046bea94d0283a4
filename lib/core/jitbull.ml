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
module Irdiff = Jitbull_obs.Irdiff
module Snapshot = Jitbull_mir.Snapshot
module Intern = Jitbull_util.Intern

let audit_verdict = function
  | `Allow -> Audit.Allow
  | `Disable ps -> Audit.Disable ps
  | `Forbid -> Audit.Forbid

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
                pm_chains = md.Comparator.md_common;
              })
            mds;
      })
    detailed

(* ---- explain capture: summarize the snapshot trace into an IR diff ---- *)

let opcode_multiset (s : Snapshot.t) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (e : Snapshot.entry) ->
      Hashtbl.replace tbl e.Snapshot.opcode
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e.Snapshot.opcode)))
    s.Snapshot.entries;
  tbl

let opcode_multiset_diff a b =
  Hashtbl.fold
    (fun k ca acc ->
      let cb = Option.value ~default:0 (Hashtbl.find_opt b k) in
      if ca > cb then (k, ca - cb) :: acc else acc)
    a []
  |> List.sort (fun (x, _) (y, _) -> String.compare x y)

(* each key is materialized once, not once per comparison *)
let chain_side_to_list (side : Delta.side) =
  Hashtbl.fold (fun k c acc -> (Intern.to_string k, (k, c)) :: acc) side []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map snd

(* One [Irdiff.pass_diff] per pass that changed the IR: instruction and
   block counts from adjacent snapshots, the opcode multiset diff, and
   the Δ sides the comparator scored (shared with [dna], so capture never
   re-extracts sub-chains). *)
let capture_diff ~(trace : (string * Snapshot.t) list) ~(dna : Dna.t) =
  match trace with
  | [] ->
    {
      Irdiff.cd_func = dna.Dna.func_name;
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
          let ops = opcode_multiset snap in
          let chains_added, chains_removed =
            match List.assoc_opt pass dna.Dna.deltas with
            | Some (d : Delta.t) ->
              (chain_side_to_list d.Delta.added, chain_side_to_list d.Delta.removed)
            | None -> ([], [])
          in
          let pd =
            {
              Irdiff.pd_pass = pass;
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
            pd.Irdiff.pd_instrs_before = pd.Irdiff.pd_instrs_after
            && pd.Irdiff.pd_blocks_before = pd.Irdiff.pd_blocks_after
            && pd.Irdiff.pd_opcodes_added = []
            && pd.Irdiff.pd_opcodes_removed = []
            && chains_added = [] && chains_removed = []
          then None
          else Some pd)
        rest
    in
    {
      Irdiff.cd_func = dna.Dna.func_name;
      cd_total_passes = List.length rest;
      cd_passes = passes;
      cd_capture_seconds = 0.0;
    }

(* The go/no-go rule on a query's matches, shared by the in-process
   analyzer and the verdict service: the dangerous-pass union in pipeline
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

let analyzer ?params ?obs (db : Db.t) : Engine.analyzer =
 fun ~ctx ~func_index ~name ~trace ->
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
        let dna = Obs.span obs "dna_extract" (fun () -> Dna.extract trace) in
        dna_ref := dna;
        let query =
          Obs.span obs
            ~fields:[ ("entries", Jsonx.Int (Db.size db)) ]
            "db_compare"
            (fun () ->
              Jitbull_obs.Profile.with_tag prof_comparator @@ fun () ->
              Db.matching_detailed ?params ?obs db dna)
        in
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
    (* capture the IR diff before appending, so the diff is in the ring by
       the time the record's seq is observable; helper compile domains run
       this whole block, which attaches the diff to the same record the
       safepoint install will expose *)
    let diff =
      match Obs.irdiff o with
      | None -> None
      | Some _ ->
        let t0c = Obs.now obs in
        let d = capture_diff ~trace ~dna:!dna_ref in
        let dt = Float.max 0.0 (Obs.now obs -. t0c) in
        Obs.observe obs "explain.capture_seconds" dt;
        Some { d with Irdiff.cd_capture_seconds = dt }
    in
    let r =
      Audit.append (Obs.audit o) ~func_name:name ~func_index
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
        ()
    in
    (match Obs.irdiff o, diff with
    | Some ring, Some d ->
      Irdiff.attach ring ~seq:r.Audit.seq d;
      List.iter
        (fun (cve, mds) ->
          List.iter
            (fun (md : Comparator.match_detail) ->
              let introduced =
                List.fold_left
                  (fun acc (pd : Irdiff.pass_diff) ->
                    if String.equal pd.Irdiff.pd_pass md.Comparator.md_pass then
                      acc
                      + List.fold_left (fun a (_, c) -> a + c) 0
                          pd.Irdiff.pd_chains_added
                    else acc)
                  0 d.Irdiff.cd_passes
              in
              Irdiff.record_contribution ring ~pass:md.Comparator.md_pass ~cve
                introduced)
            mds)
        q.Db.q_matches
    | _ -> ())
  | None -> ());
  match verdict with
  | `Allow -> Engine.Allow
  | `Disable passes -> Engine.Disable_passes passes
  | `Forbid -> Engine.Forbid_jit

let config ?params ?obs ?compile_pool ~vulns (db : Db.t) : Engine.config =
  let analyzer, policy_cache =
    if Db.is_empty db then (None, None)
    else
      ( Some (analyzer ?params ?obs db),
        Some (Engine.Policy_cache.create ~generation:(fun () -> Db.generation db) ()) )
  in
  { Engine.default_config with Engine.vulns; analyzer; obs; policy_cache; compile_pool }
