module Sexpr = Jitbull_util.Sexpr
module Inttbl = Jitbull_util.Inttbl
module Rwlock = Jitbull_util.Rwlock
module Engine = Jitbull_jit.Engine
module Sset = Set.Make (String)

type entry = {
  cve : string;
  dna : Dna.t;
}

(* Entries live in a growable array (insertion order), with the naive
   [entries] list memoized. Alongside it sits the inverted index used by
   {!matching}: each pass name gets a slot, column [2 * slot + side]
   (removed 0, added 1) maps a packed sub-chain key to 1 + its newest
   posting [i] in [nodes], and [nodes.(3i .. 3i+2)] is (entry index,
   multiplicity, the key's next older posting or -1). *)
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
          engines and jitbulld's domain can consult the DB while [add] /
          [remove_cve] — writers, rare by the paper's lifecycle — mutate
          it exclusively. [generation] is read under the same lock, so a
          policy-cache revalidation never observes a half-applied
          mutation. *)
  slots : (string, int) Hashtbl.t;  (** pass name → slot *)
  mutable postings : Inttbl.t array;  (** column → postings table *)
  mutable nodes : int array;
  mutable n_nodes : int;
  mutable totals : int array array;
      (** entry index → column → total multiplicity (the |δ'| of the
          comparator's MaxEqChains); 0 past the end *)
  mutable posted : Sset.t;
      (** passes with ≥1 posting, i.e. a non-empty Δ side in some entry;
          replaced (never mutated in place) under the write lock, so a
          reader can keep the set it saw *)
  mutable held : (string * string, unit) Hashtbl.t option;
      (** {!entry_key} of every entry, for {!add}'s duplicate check:
          built by the first [add], kept by [add], dropped by every other
          write, so a replica that only [apply]s never computes it *)
}

let create () =
  {
    arr = Array.make 8 { cve = ""; dna = { Dna.func_name = ""; deltas = [] } };
    count = 0;
    fwd_cache = None;
    generation = 0;
    base_gen = 0;
    lock = Rwlock.create ();
    slots = Hashtbl.create 32;
    postings = [||];
    nodes = [||];
    n_nodes = 0;
    totals = [||];
    posted = Sset.empty;
    held = None;
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

let grow a n fill =
  if n <= Array.length a then a else Array.append a (Array.make (max n (Array.length a)) fill)

let index_entry t idx (e : entry) =
  let sides =
    List.concat_map
      (fun (pass, (d : Delta.t)) ->
        if not (Hashtbl.mem t.slots pass) then begin
          Hashtbl.add t.slots pass (Hashtbl.length t.slots);
          t.postings <- Array.append t.postings [| Inttbl.create 0; Inttbl.create 0 |]
        end;
        let slot = Hashtbl.find t.slots pass in
        [ (pass, 2 * slot, d.Delta.removed); (pass, (2 * slot) + 1, d.Delta.added) ])
      e.dna.Dna.deltas
  in
  let totals = Array.make (2 * Hashtbl.length t.slots) 0 in
  List.iter
    (fun (pass, column, side) ->
      Hashtbl.iter
        (fun k c ->
          let i = t.n_nodes in
          t.nodes <- grow t.nodes (3 * (i + 1)) 0;
          Array.blit [| idx; c; Inttbl.find t.postings.(column) k - 1 |] 0 t.nodes (3 * i) 3;
          Inttbl.replace t.postings.(column) k (i + 1);
          t.n_nodes <- i + 1;
          totals.(column) <- totals.(column) + c)
        side;
      if totals.(column) > 0 then t.posted <- Sset.add pass t.posted)
    sides;
  t.totals <- grow t.totals (idx + 1) [||];
  t.totals.(idx) <- totals

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

(* CVE and canonical DNA (its s-expression sorts each Δ side), so two
   extractions of one function compare equal whatever their hash-table
   order *)
let entry_key e = (e.cve, Sexpr.to_string (Dna.to_sexpr e.dna))

(* true when [entry] was new and appended *)
let add_new t entry =
  Rwlock.with_write t.lock (fun () ->
      let held =
        match t.held with
        | Some h -> h
        | None ->
          let h = Hashtbl.create 16 in
          List.iter (fun e -> Hashtbl.replace h (entry_key e) ()) (entries_unlocked t);
          t.held <- Some h;
          h
      in
      let key = entry_key entry in
      let fresh = not (Hashtbl.mem held key) in
      if fresh then begin
        append_unlocked t entry;
        Hashtbl.add held key ()
      end;
      fresh)

let add t entry = ignore (add_new t entry)

(* replace the contents with [kept] and rebuild the index once; one
   generation bump, which fences off the history before it *)
let reset_unlocked t kept =
  Hashtbl.reset t.slots;
  t.held <- None;
  t.postings <- [||];
  t.n_nodes <- 0;
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

(* A query's EqChains accumulator, per domain: [cells] by
   [entry * width + column] ([width] = 2 × pass slots), all zero between
   queries, and [touched], the cells the running query made nonzero
   (multiplicities are ≥ 1), which it zeroes when done. Borrowed out of
   the domain's cell as [Depgraph.build] borrows its array. *)
let scratch = Domain.DLS.new_key (fun () -> Atomic.make ([||], [||]))

(* Indexed query, under the read lock: walk the function's keys through
   the postings of the same (pass, side) column, accumulating EqChains =
   Σ min(c, c') per (entry, column) cell, so only cells sharing a key are
   touched (the sub-linear early-out for benign functions). Touched cells
   reaching Thr ("prefilter hits") take the Ratio test against the
   totals; survivors are materialized by entry, then by the function's
   pass order, the removed side winning as in [Comparator.similar]. Equal
   (evidence included) to folding {!Comparator.matching_passes_detailed}
   over [entries]; also returns the (candidate, hit) counts. *)
let indexed_matching ~params ?obs t (dna : Dna.t) =
  let module Obs = Jitbull_obs.Obs in
  let width = 2 * Hashtbl.length t.slots and nodes = t.nodes in
  let cell = Domain.DLS.get scratch in
  let cells, touched =
    match Atomic.exchange cell ([||], [||]) with
    | cells, _ when Array.length cells < t.count * width ->
      let n = max (t.count * width) (2 * Array.length cells) in
      (Array.make n 0, Array.make n 0)
    | scratch -> scratch
  in
  let n_touched = ref 0 and func_totals = Array.make width 0 in
  let scan column (side : Delta.side) =
    let postings = t.postings.(column) in
    Hashtbl.iter
      (fun k c ->
        func_totals.(column) <- func_totals.(column) + c;
        let i = ref (Inttbl.find postings k - 1) in
        while !i >= 0 do
          let x = (nodes.(3 * !i) * width) + column in
          if cells.(x) = 0 then begin
            touched.(!n_touched) <- x;
            incr n_touched
          end;
          cells.(x) <- cells.(x) + Int.min c nodes.((3 * !i) + 1);
          i := nodes.((3 * !i) + 2)
        done)
      side
  in
  let passes =
    List.map
      (fun (pass, (d : Delta.t)) ->
        let slot = match Hashtbl.find t.slots pass with v -> v | exception Not_found -> -1 in
        if slot >= 0 then begin
          scan (2 * slot) d.Delta.removed;
          scan ((2 * slot) + 1) d.Delta.added
        end;
        (pass, d, slot))
      dna.Dna.deltas
  in
  let max_eq x =
    let et = t.totals.(x / width) and column = x mod width in
    Int.min func_totals.(column) (if column < Array.length et then et.(column) else 0)
  in
  (* survivors move to the front of [touched]; other cells are zeroed *)
  let thr = params.Comparator.thr and ratio = params.Comparator.ratio in
  let hits = ref 0 and survivors = ref 0 and first = ref max_int and last = ref (-1) in
  for j = 0 to !n_touched - 1 do
    let x = touched.(j) in
    if cells.(x) >= thr then incr hits;
    if cells.(x) >= thr && float_of_int cells.(x) >= ratio *. float_of_int (max_eq x) then begin
      touched.(!survivors) <- x;
      incr survivors;
      first := Int.min !first (x / width);
      last := Int.max !last (x / width)
    end
    else cells.(x) <- 0
  done;
  let detail e pass d x =
    let added = x mod 2 = 1 in
    let side (d : Delta.t) = if added then d.Delta.added else d.Delta.removed in
    let dna' = t.arr.(e).dna in
    let common =
      lazy
        (match List.assoc_opt pass dna'.Dna.deltas with
        | None -> []
        | Some d' -> Comparator.side_common (side d) (side d'))
    in
    {
      Comparator.md_pass = pass;
      md_side = (if added then `Added else `Removed);
      md_eq_chains = cells.(x);
      md_max_eq_chains = max_eq x;
      md_common = common;
    }
  in
  let matches = ref [] and pairs = ref 0 in
  for e = !last downto !first do
    let mds =
      List.filter_map
        (fun (pass, d, slot) ->
          let x = (e * width) + (2 * slot) in
          if slot < 0 then None
          else if cells.(x) > 0 then Some (detail e pass d x)
          else if cells.(x + 1) > 0 then Some (detail e pass d (x + 1))
          else None)
        passes
    in
    pairs := !pairs + List.length mds;
    if mds <> [] then matches := (t.arr.(e).cve, mds) :: !matches
  done;
  for j = 0 to !survivors - 1 do
    cells.(touched.(j)) <- 0
  done;
  Atomic.set cell (cells, touched);
  Obs.add obs "comparator.prefilter_candidates" !n_touched;
  Obs.add obs "comparator.prefilter_hits" !hits;
  Obs.add obs "comparator.matches" !pairs;
  (!matches, !n_touched, !hits)

let matching_detailed ?(params = Comparator.default_params) ?obs t (dna : Dna.t) =
  let module Obs = Jitbull_obs.Obs in
  if params.Comparator.thr < 1 then
    invalid_arg "Db.matching_detailed: Thr < 1 matches key-disjoint sides";
  Rwlock.with_read t.lock (fun () ->
      let matches, candidates, hits =
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
      let added =
        List.length (List.filter (fun dna -> add_new t { cve; dna }) (List.rev !harvested))
      in
      Obs.add obs "db.harvested_entries" added;
      added)

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
  | Append es ->
    Rwlock.with_write t.lock (fun () ->
        t.held <- None;
        List.iter (append_unlocked t) es)
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
