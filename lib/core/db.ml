module Sexpr = Jitbull_util.Sexpr
module Intern = Jitbull_util.Intern
module Rwlock = Jitbull_util.Rwlock
module Engine = Jitbull_jit.Engine
module Sset = Set.Make (String)

type entry = {
  cve : string;
  dna : Dna.t;
}

(* Entries live in a growable array (insertion order), with the naive
   [entries] list memoized. Alongside it sits the inverted index used by
   {!matching}: for every DB entry, pass and delta side, one posting per
   sub-chain key. Keys are (pass id, added?, sub-chain id) triples of
   {!Intern} ids, so a lookup hashes three machine words. *)
type t = {
  mutable arr : entry array;
  mutable count : int;
  mutable fwd_cache : entry list option;
  mutable generation : int;
  mutable base_gen : int;
      (** generation of the last {!remove_cve} (0 if none): history from
          [base_gen] to [generation] is append-only, one entry per bump,
          which is what lets {!delta_since} answer with a suffix *)
  lock : Rwlock.t;
      (** queries ([matching]/[entries]/…) run under the read side so
          helper compile domains can consult the DB while [add] /
          [remove_cve] — writers, rare by the paper's lifecycle — mutate
          it exclusively. [generation] is read under the same lock, so a
          policy-cache revalidation never observes a half-applied
          mutation. *)
  postings : (Intern.id * bool * Intern.id, (int * int) list ref) Hashtbl.t;
      (** (pass, side, sub-chain) → (entry index, multiplicity) postings *)
  totals : (int * Intern.id * bool, int) Hashtbl.t;
      (** (entry index, pass, side) → total multiplicity (the |δ'| of the
          comparator's MaxEqChains) *)
  mutable posted : Sset.t;
      (** passes with ≥1 posting, i.e. a non-empty Δ side in some entry;
          replaced (never mutated in place) under the write lock, so a
          reader can keep the set it saw *)
}

let create () =
  {
    arr = Array.make 8 { cve = ""; dna = { Dna.func_name = ""; deltas = [] } };
    count = 0;
    fwd_cache = None;
    generation = 0;
    base_gen = 0;
    lock = Rwlock.create ();
    postings = Hashtbl.create 256;
    totals = Hashtbl.create 64;
    posted = Sset.empty;
  }

let is_empty t = Rwlock.with_read t.lock (fun () -> t.count = 0)

let size t = Rwlock.with_read t.lock (fun () -> t.count)

let generation t = Rwlock.with_read t.lock (fun () -> t.generation)

let posted t =
  Rwlock.with_read t.lock (fun () ->
      let set = t.posted in
      (t.generation, fun pass -> Sset.mem pass set))

(* Memoizing under the read lock is a benign race: concurrent readers may
   both build the list, but both values are equal and the single-word
   store cannot tear. *)
let entries_unlocked t =
  match t.fwd_cache with
  | Some l -> l
  | None ->
    let l = Array.to_list (Array.sub t.arr 0 t.count) in
    t.fwd_cache <- Some l;
    l

let entries t = Rwlock.with_read t.lock (fun () -> entries_unlocked t)

let index_entry t idx (e : entry) =
  List.iter
    (fun (pass, (d : Delta.t)) ->
      let pid = Intern.intern pass in
      let index_side flag (side : Delta.side) =
        let total = ref 0 in
        Hashtbl.iter
          (fun k c ->
            total := !total + c;
            let key = (pid, flag, k) in
            match Hashtbl.find_opt t.postings key with
            | Some lst -> lst := (idx, c) :: !lst
            | None -> Hashtbl.add t.postings key (ref [ (idx, c) ]))
          side;
        if !total > 0 then begin
          Hashtbl.replace t.totals (idx, pid, flag) !total;
          t.posted <- Sset.add pass t.posted
        end
      in
      index_side false d.Delta.removed;
      index_side true d.Delta.added)
    e.dna.Dna.deltas

let append_unlocked t entry =
  if t.count = Array.length t.arr then begin
    let bigger = Array.make (2 * t.count) entry in
    Array.blit t.arr 0 bigger 0 t.count;
    t.arr <- bigger
  end;
  t.arr.(t.count) <- entry;
  index_entry t t.count entry;
  t.count <- t.count + 1;
  t.fwd_cache <- None;
  t.generation <- t.generation + 1

let add t entry = Rwlock.with_write t.lock (fun () -> append_unlocked t entry)

(* replace the contents with [kept] and rebuild the index once; one
   generation bump, which fences off the history before it *)
let reset_unlocked t kept =
  Hashtbl.reset t.postings;
  Hashtbl.reset t.totals;
  t.posted <- Sset.empty;
  let n = List.length kept in
  (match kept with
  | e :: _ when n > Array.length t.arr -> t.arr <- Array.make (2 * n) e
  | _ -> ());
  List.iteri
    (fun i e ->
      t.arr.(i) <- e;
      index_entry t i e)
    kept;
  t.count <- n;
  t.fwd_cache <- Some kept;
  t.generation <- t.generation + 1;
  t.base_gen <- t.generation

let remove_cve t cve =
  Rwlock.with_write t.lock (fun () ->
      reset_unlocked t
        (List.filter (fun e -> not (String.equal e.cve cve)) (entries_unlocked t)))

let cves t =
  let seen = Hashtbl.create 16 in
  let out =
    List.fold_left
      (fun acc e ->
        if Hashtbl.mem seen e.cve then acc
        else begin
          Hashtbl.add seen e.cve ();
          e.cve :: acc
        end)
      [] (entries t)
  in
  List.rev out

(* ---- the Δ comparison against the whole database ---- *)

type query = {
  q_matches : (string * Comparator.match_detail list) list;
  q_prefilter_candidates : int;
  q_prefilter_hits : int;
  q_generation : int;
  q_size : int;
}

let naive_matching_detailed ?params ?obs t (dna : Dna.t) =
  List.filter_map
    (fun e ->
      match Comparator.matching_passes_detailed ?params ?obs dna e.dna with
      | [] -> None
      | mds -> Some (e.cve, mds))
    (entries_unlocked t)

(* The Thr/Ratio phase of the indexed scan: given the accumulated
   EqChains cells [acc] and the function's per-(pass, side) totals,
   apply the prefilter and the Ratio bound and materialize the matches
   in entry order. Must run under the DB read
   lock — it reads [t.totals], [t.arr] and [t.count]. *)
let finalize_matching ~params ?obs t ~acc ~func_totals (dna : Dna.t) =
  let module Obs = Jitbull_obs.Obs in
  (* (entry, pass) → (added?, EqChains, MaxEqChains) of the side that
     matched; when both sides match, the removed side wins, mirroring the
     or-ordering in [Comparator.similar] *)
  let matched : (int * Intern.id, bool * int * int) Hashtbl.t = Hashtbl.create 16 in
  let hits = ref 0 in
  Hashtbl.iter
    (fun (eidx, pid, flag) eq ->
      if eq >= params.Comparator.thr then begin
        incr hits;
        let ft = Option.value ~default:0 (Hashtbl.find_opt func_totals (pid, flag)) in
        let et = Option.value ~default:0 (Hashtbl.find_opt t.totals (eidx, pid, flag)) in
        let max_eq = min ft et in
        if float_of_int eq >= params.Comparator.ratio *. float_of_int max_eq then
          let keep =
            match Hashtbl.find_opt matched (eidx, pid) with
            | None -> true
            | Some (prev_added, _, _) -> prev_added && not flag
          in
          if keep then Hashtbl.replace matched (eidx, pid) (flag, eq, max_eq)
      end)
    acc;
  Obs.add obs "comparator.prefilter_candidates" (Hashtbl.length acc);
  Obs.add obs "comparator.prefilter_hits" !hits;
  Obs.add obs "comparator.matches" (Hashtbl.length matched);
  let out =
    if Hashtbl.length matched = 0 then []
    else begin
      let out = ref [] in
      for i = t.count - 1 downto 0 do
        let passes =
          List.filter_map
            (fun (pass, (d : Delta.t)) ->
              match Hashtbl.find_opt matched (i, Intern.intern pass) with
              | Some (added, eq, max_eq) ->
                (* materializing the common sub-chains re-reads both deltas
                   but only for matched (entry, pass) cells — the cold
                   path, exactly like the naive comparator *)
                let common =
                  match List.assoc_opt pass t.arr.(i).dna.Dna.deltas with
                  | None -> []
                  | Some (d' : Delta.t) ->
                    if added then Comparator.side_common d.Delta.added d'.Delta.added
                    else Comparator.side_common d.Delta.removed d'.Delta.removed
                in
                Some
                  {
                    Comparator.md_pass = pass;
                    md_side = (if added then `Added else `Removed);
                    md_eq_chains = eq;
                    md_max_eq_chains = max_eq;
                    md_common = common;
                  }
              | None -> None)
            dna.Dna.deltas
        in
        if passes <> [] then out := (t.arr.(i).cve, passes) :: !out
      done;
      !out
    end
  in
  (out, Hashtbl.length acc, !hits)

(* Indexed query: walk the function's sub-chain keys through the postings
   and accumulate EqChains = Σ min(c, c') per (entry, pass, side) cell —
   only cells with at least one overlapping key ever materialize, which is
   the sub-linear early-out for benign functions. Cells reaching Thr
   ("prefilter hits") are then checked against the Ratio bound using the
   precomputed totals. Produces bit-for-bit the same result, in the same
   order (including each match's side and scores), as folding
   {!Comparator.matching_passes_detailed} over [entries]. Returns the
   matches plus the prefilter (candidate, hit) counts. *)
let indexed_matching ~params ?obs t (dna : Dna.t) =
  let acc : (int * Intern.id * bool, int) Hashtbl.t = Hashtbl.create 64 in
  let func_totals : (Intern.id * bool, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (pass, (d : Delta.t)) ->
      let pid = Intern.intern pass in
      let scan flag (side : Delta.side) =
        let total = ref 0 in
        Hashtbl.iter
          (fun k c ->
            total := !total + c;
            match Hashtbl.find_opt t.postings (pid, flag, k) with
            | None -> ()
            | Some lst ->
              List.iter
                (fun (eidx, c') ->
                  let key = (eidx, pid, flag) in
                  let cur = Option.value ~default:0 (Hashtbl.find_opt acc key) in
                  Hashtbl.replace acc key (cur + min c c'))
                !lst)
          side;
        if !total > 0 then Hashtbl.replace func_totals (pid, flag) !total
      in
      scan false d.Delta.removed;
      scan true d.Delta.added)
    dna.Dna.deltas;
  finalize_matching ~params ?obs t ~acc ~func_totals dna

let matching_detailed ?(params = Comparator.default_params) ?obs t (dna : Dna.t) =
  let module Obs = Jitbull_obs.Obs in
  Rwlock.with_read t.lock (fun () ->
      let matches, candidates, hits =
        if params.Comparator.thr < 1 then
          (* Thr ≤ 0 lets key-disjoint (even empty) sides match, which the
             overlap-driven index cannot see — use the exhaustive scan
             (no prefilter: every entry is a candidate and a survivor) *)
          (naive_matching_detailed ~params ?obs t dna, t.count, t.count)
        else
          Obs.time obs "comparator.indexed.seconds" (fun () ->
              indexed_matching ~params ?obs t dna)
      in
      {
        q_matches = matches;
        q_prefilter_candidates = candidates;
        q_prefilter_hits = hits;
        q_generation = t.generation;
        q_size = t.count;
      })

let drop_details q_matches =
  List.map
    (fun (cve, mds) -> (cve, List.map (fun md -> md.Comparator.md_pass) mds))
    q_matches

let matching ?params ?obs t (dna : Dna.t) =
  drop_details (matching_detailed ?params ?obs t dna).q_matches

let harvest ?obs t ~cve ~vulns source =
  let module Obs = Jitbull_obs.Obs in
  Obs.span obs
    ~fields:[ ("cve", Jitbull_obs.Jsonx.String cve) ]
    ~fields_of:(fun n -> [ ("entries", Jitbull_obs.Jsonx.Int n) ])
    "db_harvest"
    (fun () ->
      let harvested = ref [] in
      let analyzer ~ctx:_ ~func_index:_ ~name:_ ~trace =
        let dna = Obs.span obs "dna_extract" (fun () -> Dna.extract trace) in
        if Dna.nonempty_passes dna <> [] then harvested := dna :: !harvested;
        Engine.Allow
      in
      let config =
        { Engine.default_config with Engine.vulns; analyzer = Some analyzer; obs }
      in
      (* the demonstrator may crash or detonate — DNA extraction happens at
         compile time, before or despite that *)
      (try ignore (Engine.run_source config source) with
      | Jitbull_runtime.Errors.Crash _
      | Jitbull_runtime.Errors.Shellcode_executed _
      | Jitbull_runtime.Errors.Type_error _ ->
        ());
      let added = List.rev !harvested in
      List.iter (fun dna -> add t { cve; dna }) added;
      Obs.add obs "db.harvested_entries" (List.length added);
      List.length added)

let entry_to_sexpr e =
  Sexpr.list [ Sexpr.atom "entry"; Sexpr.atom e.cve; Dna.to_sexpr e.dna ]

let entry_of_sexpr s =
  match Sexpr.to_list s with
  | [ Sexpr.Atom "entry"; cve; dna ] ->
    { cve = Sexpr.to_atom cve; dna = Dna.of_sexpr dna }
  | _ -> raise (Sexpr.Decode_error "bad db entry")

let to_sexpr t =
  Sexpr.list (Sexpr.atom "jitbull-db" :: List.map entry_to_sexpr (entries t))

let of_sexpr s =
  match Sexpr.to_list s with
  | Sexpr.Atom "jitbull-db" :: rest ->
    let t = create () in
    List.iter (fun e -> add t (entry_of_sexpr e)) rest;
    t
  | _ -> raise (Sexpr.Decode_error "not a jitbull-db file")

let save t path = Sexpr.save path (to_sexpr t)

let load path = of_sexpr (Sexpr.load path)

(* ---- generation deltas (replica sync) ---- *)

type sync = Append of entry list | Resync of entry list

let rec list_drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> list_drop (n - 1) tl

(* A replica applies a payload in one write section: a query sees the
   replica before or after it, never a resync's empty or partial
   middle. *)
let apply t = function
  | Append es -> Rwlock.with_write t.lock (fun () -> List.iter (append_unlocked t) es)
  | Resync es -> Rwlock.with_write t.lock (fun () -> reset_unlocked t es)

(* [add] bumps the generation exactly once per appended entry, and
   [remove_cve] raises [base_gen] to fence off the non-append-only past —
   so for any g in [base_gen, generation] the entries a replica at g is
   missing are precisely the last (generation - g). *)
let delta_since t g =
  Rwlock.with_read t.lock (fun () ->
      let gen = t.generation in
      if g >= t.base_gen && g <= gen then
        (gen, Append (list_drop (t.count - (gen - g)) (entries_unlocked t)))
      else (gen, Resync (entries_unlocked t)))
