(* Overhead: go/no-go query cost vs database size.

   The paper's evaluation stops at #8 VDCs; this section measures how the
   decision cost scales past that, comparing the naive comparator fold
   (O(entries)) against the inverted sub-chain index at 1/8/32/128
   entries. Databases beyond the 8 harvested CVEs are padded with
   synthetic clones whose sub-chain keys are renamed per clone — the
   realistic regime where distinct vulnerabilities share few keys. Every
   timed query is also checked for decision equivalence between the two
   paths. *)

open Harness
module Table = Jitbull_util.Text_table
module Dna = Jitbull_core.Dna
module Delta = Jitbull_core.Delta
module Comparator = Jitbull_core.Comparator

let run () =
  section "Overhead: go/no-go decision cost vs DB size (indexed vs naive)";
  Printf.printf
    "Per-query latency of the DB comparison for a function DNA, naive fold\n\
     over every entry vs the inverted sub-chain index, at 1/8/32/128 entries\n\
     (8 harvested CVE DNAs + key-renamed synthetic clones). Decisions are\n\
     asserted identical on every timed query.\n\n";
  let params = Comparator.default_params in
  let real_entries = Db.entries (cached_db 8) in
  let nreal = List.length real_entries in
  (* clone [idx]-th entry with per-clone key renaming: synthetic CVEs must
     not collide with each other or the real ones *)
  let perturb_side k side =
    Delta.side_of_list
      (Hashtbl.fold
         (fun key c acc -> (Printf.sprintf "v%d:%s" k (Delta.key_to_string key), c) :: acc)
         side [])
  in
  let synth_entry k (e : Db.entry) =
    {
      Db.cve = Printf.sprintf "%s-syn%d" e.Db.cve k;
      dna =
        {
          e.Db.dna with
          Dna.deltas =
            List.map
              (fun (pass, (d : Delta.t)) ->
                ( pass,
                  { Delta.removed = perturb_side k d.Delta.removed;
                    added = perturb_side k d.Delta.added } ))
              e.Db.dna.Dna.deltas;
        };
    }
  in
  let db_of_size s =
    let db = Db.create () in
    for i = 0 to s - 1 do
      let e = List.nth real_entries (i mod nreal) in
      Db.add db (if i < nreal then e else synth_entry (i / nreal) e)
    done;
    db
  in
  (* query set: benign DNAs from workload functions (the common case) plus
     one exploit DNA straight from the database (the hit path). The
     benign set is four workloads, not [sample]: the published speedups
     were measured on this set, so it stays fixed to keep them
     comparable. *)
  let dna_of_source source =
    let prog = Jitbull_frontend.Parser.parse source in
    let bc = Jitbull_bytecode.Compiler.compile prog in
    let vm = Jitbull_bytecode.Vm.create bc in
    (try ignore (Jitbull_bytecode.Vm.run vm) with _ -> ());
    let g =
      Jitbull_mir.Builder.build bc.Jitbull_bytecode.Op.funcs.(0)
        ~feedback_row:vm.Jitbull_bytecode.Vm.feedback.(0)
    in
    Dna.extract (Jitbull_passes.Pipeline.run VC.none g)
  in
  let queries =
    List.map (fun (w : W.t) -> dna_of_source w.W.source)
      (List.filter_map W.find [ "Richards"; "RayTrace"; "Splay"; "Microbench1" ])
    @ [ (List.hd real_entries).Db.dna ]
  in
  let naive db dna =
    List.filter_map
      (fun (e : Db.entry) ->
        match Comparator.matching_passes ~params dna e.Db.dna with
        | [] -> None
        | passes -> Some (e.Db.cve, passes))
      (Db.entries db)
  in
  let reps = 20 in
  let nq = List.length queries in
  let per_query t = t /. float_of_int (reps * nq) *. 1e6 in
  let json_rows = ref [] in
  let speedup_at_128 = ref 0.0 in
  let rows =
    List.map
      (fun s ->
        let db = db_of_size s in
        let equal =
          List.for_all (fun dna -> Db.matching ~params db dna = naive db dna) queries
        in
        assert equal;
        let t_naive =
          time_best (fun () ->
              for _ = 1 to reps do
                List.iter (fun dna -> ignore (naive db dna)) queries
              done)
        in
        let t_indexed =
          time_best (fun () ->
              for _ = 1 to reps do
                List.iter (fun dna -> ignore (Db.matching ~params db dna)) queries
              done)
        in
        let speedup = t_naive /. t_indexed in
        if s = 128 then speedup_at_128 := speedup;
        json_rows :=
          Jsonx.Assoc
            [
              ("entries", Jsonx.Int s);
              ("naive_us_per_query", Jsonx.Float (per_query t_naive));
              ("indexed_us_per_query", Jsonx.Float (per_query t_indexed));
              ("speedup", Jsonx.Float speedup);
              ("decisions_equal", Jsonx.Bool equal);
            ]
          :: !json_rows;
        [
          string_of_int s;
          Printf.sprintf "%.1f us" (per_query t_naive);
          Printf.sprintf "%.1f us" (per_query t_indexed);
          Printf.sprintf "%.1fx" speedup;
          (if equal then "identical" else "DIVERGED!");
        ])
      [ 1; 8; 32; 128 ]
  in
  Table.print
    ~headers:[ "DB entries"; "naive/query"; "indexed/query"; "speedup"; "verdicts" ]
    rows;
  Printf.printf "\nIndexed speedup at 128 entries: %.1fx (target: >= 3x)\n" !speedup_at_128;
  emit "overhead"
    (Jsonx.Assoc
       [
         ("sizes", Jsonx.List (List.rev !json_rows));
         ("speedup_at_128", Jsonx.Float !speedup_at_128);
       ])
