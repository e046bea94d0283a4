(* Tests for the typed mutation IL: static semantics, lowering, the wire
   format, and the validity-by-construction promise (every seed and every
   mutant compiles, passes the bytecode verifier, and agrees across
   tiers). *)

open Helpers
module Il = Jitbull_fuzz.Il
module Il_mutate = Jitbull_fuzz.Il_mutate
module Oracle = Jitbull_fuzz.Oracle
module Verify = Jitbull_bytecode.Verify
module Prng = Jitbull_util.Prng

let fast cfg = { cfg with Engine.baseline_threshold = 2; ion_threshold = 4 }
let all_vulnerable = fast { Engine.default_config with Engine.vulns = VC.make VC.all }

let compile_src src = Compiler.compile (Parser.parse src)

let assert_valid ~name p =
  (match Il.typecheck p with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: seed does not typecheck: %s" name msg);
  let src = Il.to_source p in
  let bc =
    try compile_src src
    with exn ->
      Alcotest.failf "%s: lowered source does not compile: %s\n%s" name
        (Printexc.to_string exn) src
  in
  match Verify.check_program bc with
  | () -> src
  | exception Verify.Invalid msg ->
    Alcotest.failf "%s: bytecode fails verification: %s\n%s" name msg src

let test_seeds_valid () =
  List.iteri
    (fun i p -> ignore (assert_valid ~name:(Printf.sprintf "seed %d" i) p))
    (Il.seeds ())

let test_seeds_trip_oracle () =
  (* The four gadget seeds must actually reach the modeled bugs: with a
     fully vulnerable engine each one raises an exploit signal. *)
  let gadgets = List.filteri (fun i _ -> i < 4) (Il.seeds ()) in
  List.iteri
    (fun i p ->
      let src = Il.to_source p in
      let v = Oracle.run ~config:all_vulnerable src in
      if not (Oracle.is_exploit_signal v) then
        Alcotest.failf "gadget seed %d: no exploit signal (%s)\n%s" i
          (Oracle.verdict_kind v) src)
    gadgets

let test_seeds_benign_on_patched () =
  (* Against the fully patched engine the seeds must agree across tiers:
     no false-positive signals from the IL lowering itself. *)
  List.iteri
    (fun i p ->
      let src = Il.to_source p in
      let v = Oracle.run src in
      match v with
      | Oracle.Agree _ -> ()
      | v ->
        Alcotest.failf "seed %d: expected agreement on patched engine, got %s" i
          (Oracle.verdict_kind v))
    (Il.seeds ())

let test_serialize_round_trip () =
  List.iteri
    (fun i p ->
      let text = Il.serialize p in
      match Il.parse text with
      | Error msg -> Alcotest.failf "seed %d: parse failed: %s" i msg
      | Ok p' ->
        check_string
          (Printf.sprintf "seed %d round trip" i)
          text (Il.serialize p');
        check_string
          (Printf.sprintf "seed %d source stable" i)
          (Il.to_source p) (Il.to_source p'))
    (Il.seeds ())

let test_parse_rejects_garbage () =
  let cases =
    [
      ("empty", "");
      ("bad header", "nonsense\n");
      ("unterminated main", "il v1\nglobals 0\nmain\nprint v0\n");
      ("unknown instr", "il v1\nglobals 0\nmain\n  frobnicate v0\nendmain\n");
      ( "ill-typed",
        "il v1\nglobals 0\nmain\n  num v0 1\n  not v1 v0\nendmain\n" );
      ( "out-of-scope",
        "il v1\nglobals 0\nmain\n  print v3\nendmain\n" );
    ]
  in
  List.iter
    (fun (name, text) ->
      match Il.parse text with
      | Ok _ -> Alcotest.failf "%s: expected a parse/type error" name
      | Error _ -> ())
    cases

let test_typecheck_rejects () =
  let open Il in
  let main_prog main = { globals = 1; funcs = []; main } in
  let cases =
    [
      ("double def", main_prog [ Const (0, 1.); Const (0, 2.) ]);
      ("use before def", main_prog [ Print 0 ]);
      ( "counter write",
        main_prog [ Const (0, 1.); Loop (1, 4, [ Copy (1, 0) ]) ] );
      ( "loop bound too large",
        main_prog [ Loop (0, max_loop_bound + 1, []) ] );
      ( "loop_n over plain num",
        main_prog [ Const (0, 5.); Loop_n (1, 0, []) ] );
      ("bad slot", main_prog [ Gset_len (3, 1) ]);
      ("set_len too large", main_prog [ Array_of (0, []); Set_len (0, 999) ]);
      ("non-finite const", main_prog [ Const (0, Float.infinity) ]);
      ( "print in function",
        {
          globals = 0;
          funcs = [ { arity = 1; body = [ Print 0 ]; ret = None } ];
          main = [];
        } );
      ( "global read in function",
        {
          globals = 1;
          funcs = [ { arity = 0; body = [ Gget_len (0, 0) ]; ret = None } ];
          main = [];
        } );
      ( "self call",
        {
          globals = 0;
          funcs = [ { arity = 0; body = [ Call (0, 0, []) ]; ret = None } ];
          main = [];
        } );
      ( "ret out of scope",
        {
          globals = 0;
          funcs =
            [ { arity = 0; body = [ Loop (0, 2, [ Const (1, 1.) ]) ]; ret = Some 1 } ];
          main = [];
        } );
      ( "loop_n bound rewritten",
        main_prog
          [
            Array_of (0, []);
            Get_len (1, 0);
            Const (2, 0.);
            Loop_n (3, 1, [ Update (1, Div, 2) ]);
          ] );
      ( "nesting too deep",
        main_prog
          [
            Loop (0, 2, [ Loop (1, 2, [ Loop (2, 2, [ Loop (3, 2, [ Loop (4, 2, []) ]) ]) ]) ]);
          ] );
    ]
  in
  List.iter
    (fun (name, p) ->
      match typecheck p with
      | Ok () -> Alcotest.failf "%s: expected a type error" name
      | Error _ -> ())
    cases

(* The heap estimate: array literals multiplied through nested loops,
   and appends, each charged a constant since an append within capacity
   writes in place, each rejected at a size whose smaller sibling is
   accepted. Both are well inside the work budget. *)
let test_heap_estimate () =
  let open Il in
  let literals k =
    {
      globals = 0;
      funcs = [];
      main =
        [ Const (0, 1.); Loop (1, 64, [ Loop (2, 64, [ Loop (3, k, [ Array_of (4, List.init 16 (fun _ -> 0)) ]) ]) ]) ];
    }
  in
  let appends k =
    {
      globals = 0;
      funcs = [];
      main =
        [
          Const (0, 1.);
          Array_of (1, [ 0 ]);
          Loop (2, k, [ Loop (3, k, [ Loop (4, k, [ Get_len (5, 1); Set_elem (1, 5, 0) ]) ]) ]);
        ];
    }
  in
  let heap_rejected name p =
    match typecheck p with
    | Error msg when String.starts_with ~prefix:"prog: heap estimate" msg -> ()
    | Error msg -> Alcotest.failf "%s: rejected for another reason: %s" name msg
    | Ok () -> Alcotest.failf "%s: expected the heap estimate to reject it" name
  in
  let accepted name p =
    match typecheck p with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: rejected: %s" name msg
  in
  accepted "64*64*1 literals" (literals 1);
  heap_rejected "64*64*8 literals" (literals 8);
  accepted "16*16*16 appends" (appends 16);
  heap_rejected "32*32*32 appends" (appends 32)

(* [main] reads a global's length after calls that append to it, and
   bounds a loop appending to the same global by that length: the
   length is bounded where it is read, so the estimate has a fixpoint
   and accepts the program, which runs alike on every tier. *)
let test_global_append_loop () =
  let open Il in
  let k = 32 in
  let p =
    {
      globals = 1;
      funcs =
        [ { arity = 0; ret = None;
            body = [ Const (0, 0.); Loop (1, k, [ Gset_elem (0, 1, 0) ]) ] } ];
      main =
        [
          Loop (0, k, [ Call (1, 0, []) ]);
          Gget_len (2, 0);
          Loop_n (3, 2, [ Gget_len (4, 0); Gset_elem (0, 4, 3) ]);
          Gget_len (5, 0);
          Print 5;
        ];
    }
  in
  (match typecheck p with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "rejected: %s" msg);
  let src = to_source p in
  check_string "interp = vm" (interp_output src) (vm_output src);
  check_string "final length" "64\n" (interp_output src)

let test_lowering_runs () =
  (* Lowered seeds must run identically under interpreter and VM (the
     tier-agreement half is covered by the oracle tests above). *)
  List.iteri
    (fun i p ->
      let src = Il.to_source p in
      check_string
        (Printf.sprintf "seed %d interp = vm" i)
        (interp_output src) (vm_output src))
    (Il.seeds ())

(* --- mutators ----------------------------------------------------- *)

let mutant_pool ?(n = 60) () =
  let rng = Prng.create 4242 in
  let pool = ref (Il.seeds ()) in
  for _ = 1 to n do
    let base = List.nth !pool (Prng.int rng (List.length !pool)) in
    let donor = List.nth !pool (Prng.int rng (List.length !pool)) in
    match Il_mutate.mutate rng ~donor base with
    | Some p -> pool := p :: !pool
    | None -> ()
  done;
  !pool

let test_mutants_typecheck () =
  List.iteri
    (fun i p -> ignore (assert_valid ~name:(Printf.sprintf "mutant %d" i) p))
    (mutant_pool ())

let test_mutate_deterministic () =
  let run () =
    let rng = Prng.create 99 in
    let base = List.hd (Il.seeds ()) in
    let donor = List.nth (Il.seeds ()) 1 in
    let rec go n p =
      if n = 0 then p
      else
        match Il_mutate.mutate rng ~donor p with
        | Some p' -> go (n - 1) p'
        | None -> go (n - 1) p
    in
    Il.serialize (go 20 base)
  in
  check_string "same seed, same mutants" (run ()) (run ())

(* The tentpole invariant: any mutant chain from the seeds typechecks,
   compiles, passes the bytecode verifier and agrees across all tiers on
   the patched engine. *)
let mutant_valid (seed, steps) =
  let rng = Prng.create seed in
  let seeds = Il.seeds () in
  let rec go n p =
    if n = 0 then p
    else
      let donor = List.nth seeds (Prng.int rng (List.length seeds)) in
      match Il_mutate.mutate rng ~donor p with
      | Some p' -> go (n - 1) p'
      | None -> go (n - 1) p
  in
  let p = go steps (List.nth seeds (Prng.int rng (List.length seeds))) in
  (match Il.typecheck p with
  | Ok () -> ()
  | Error msg -> QCheck.Test.fail_reportf "mutant does not typecheck: %s" msg);
  let src = Il.to_source p in
  let bc =
    try compile_src src
    with exn ->
      QCheck.Test.fail_reportf "mutant does not compile: %s\n%s"
        (Printexc.to_string exn) src
  in
  (match Verify.check_program bc with
  | () -> ()
  | exception Verify.Invalid msg ->
    QCheck.Test.fail_reportf "mutant fails bytecode verification: %s\n%s" msg src);
  match Oracle.run src with
  | Oracle.Agree _ -> true
  | v ->
    QCheck.Test.fail_reportf "mutant diverges on patched engine: %s\n%s"
      (Oracle.verdict_kind v) src

let qcheck_mutants_valid =
  let gen =
    QCheck.Gen.(
      map2 (fun seed steps -> (seed, steps)) (int_bound 1_000_000) (int_range 1 8))
  in
  let arb = QCheck.make ~print:(fun (s, n) -> Printf.sprintf "seed=%d steps=%d" s n) gen in
  QCheck.Test.make ~count:(qcheck_count 20) ~name:"il mutants valid and tier-agreeing" arb
    mutant_valid

(* A mutant whose [Update] loop drives a store index to -48: every tier
   used to raise "invalid array index" on [f0v3[f0v4] = f0v0]. *)
let test_mutant_negative_store_index () =
  check_bool "seed=30053 steps=8 agrees" true (mutant_valid (30053, 8))

(* A mutant whose [Update] divided a [Loop_n] bound by a zero loop
   counter inside the loop: the bound became Infinity, the loop appended
   forever and every tier ended in [Heap_exhausted]. A length-tainted
   variable is now never written, and the heap estimate bounds the
   cells a mutant allocates. *)
let test_mutant_unbounded_loop_n () =
  check_bool "seed=83607 steps=7 agrees" true (mutant_valid (83607, 7))

(* Stores at every index [Value_ops.to_index] rejects — negative,
   fractional, NaN, undefined (an OOB read), 2^31 — are absorbed, in
   local and global arrays alike; the in-bounds and append stores beside
   them still land. *)
let test_store_invalid_index_absorbed () =
  let p =
    {
      Il.globals = 1;
      funcs = [];
      main =
        [
          Il.Const (0, 7.);
          Il.Const (1, 1.);
          Il.Const (2, 3.);
          Il.Array_of (3, [ 0; 0; 0 ]);
          Il.Get_elem (4, 3, 2);
          Il.Binop (5, Il.Mul, 4, 0);
          Il.Const (6, -48.);
          Il.Const (7, 1.5);
          Il.Const (8, 2147483648.);
        ]
        @ List.concat_map (fun i -> [ Il.Set_elem (3, i, 0); Il.Gset_elem (0, i, 0) ]) [ 4; 5; 6; 7; 8 ]
        @ [
            Il.Set_elem (3, 1, 1);
            Il.Set_elem (3, 2, 1);
            Il.Gset_elem (0, 1, 1);
            Il.Get_len (9, 3);
            Il.Gget_len (10, 0);
            Il.Print 9;
            Il.Print 10;
          ];
    }
  in
  let src = assert_valid ~name:"invalid-index stores" p in
  match Oracle.run src with
  | Oracle.Agree _ -> check_string "lengths" "4\n2\n" (interp_output src)
  | v -> Alcotest.failf "diverges: %s\n%s" (Oracle.verdict_kind v) src

let suite =
  ( "il",
    [
      Alcotest.test_case "seeds valid" `Quick test_seeds_valid;
      Alcotest.test_case "seeds trip oracle" `Quick test_seeds_trip_oracle;
      Alcotest.test_case "seeds benign on patched" `Quick test_seeds_benign_on_patched;
      Alcotest.test_case "serialize round trip" `Quick test_serialize_round_trip;
      Alcotest.test_case "parse rejects garbage" `Quick test_parse_rejects_garbage;
      Alcotest.test_case "typecheck rejects" `Quick test_typecheck_rejects;
      Alcotest.test_case "heap estimate" `Quick test_heap_estimate;
      Alcotest.test_case "global append loop accepted" `Quick test_global_append_loop;
      Alcotest.test_case "lowering runs" `Quick test_lowering_runs;
      Alcotest.test_case "mutants typecheck" `Quick test_mutants_typecheck;
      Alcotest.test_case "mutate deterministic" `Quick test_mutate_deterministic;
      Alcotest.test_case "mutant negative store index" `Quick test_mutant_negative_store_index;
      Alcotest.test_case "mutant unbounded loop_n" `Quick test_mutant_unbounded_loop_n;
      Alcotest.test_case "store invalid index absorbed" `Quick test_store_invalid_index_absorbed;
      qtest qcheck_mutants_valid;
    ] )
