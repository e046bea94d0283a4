(* Tests for jitbull_util: sexpr, prng, text_table. *)

open Helpers
module Sexpr = Jitbull_util.Sexpr
module Prng = Jitbull_util.Prng
module Text_table = Jitbull_util.Text_table

let roundtrip s = Sexpr.of_string (Sexpr.to_string s)

let rec sexpr_equal a b =
  match (a, b) with
  | Sexpr.Atom x, Sexpr.Atom y -> String.equal x y
  | Sexpr.List xs, Sexpr.List ys ->
    List.length xs = List.length ys && List.for_all2 sexpr_equal xs ys
  | _ -> false

let test_atoms () =
  check_string "plain atom" "hello" (Sexpr.to_string (Sexpr.atom "hello"));
  check_string "quoted atom" "\"two words\"" (Sexpr.to_string (Sexpr.atom "two words"));
  check_string "empty atom" "\"\"" (Sexpr.to_string (Sexpr.atom ""));
  check_int "int atom" 42 (Sexpr.to_int (Sexpr.int 42));
  check_bool "bool atom" true (Sexpr.to_bool (Sexpr.bool true));
  Alcotest.(check (float 0.0)) "float atom" 3.25 (Sexpr.to_float (Sexpr.float 3.25))

let test_parse () =
  let s = Sexpr.of_string "(a (b 1 2) \"c d\")" in
  match s with
  | Sexpr.List [ Sexpr.Atom "a"; Sexpr.List [ Sexpr.Atom "b"; Sexpr.Atom "1"; Sexpr.Atom "2" ]; Sexpr.Atom "c d" ]
    -> ()
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_comments () =
  let s = Sexpr.of_string "; header\n(x ; inline\n y)" in
  check_bool "comments skipped" true
    (sexpr_equal s (Sexpr.list [ Sexpr.atom "x"; Sexpr.atom "y" ]))

let test_parse_errors () =
  let fails ?msg str =
    match Sexpr.of_string str with
    | exception Sexpr.Decode_error m ->
      Option.iter (fun msg -> check_string ("message for " ^ str) msg m) msg
    | _ -> Alcotest.fail ("should not parse: " ^ str)
  in
  fails "(unclosed";
  fails ")";
  fails "\"unterminated";
  fails "a b" (* trailing garbage *);
  fails ~msg:"unterminated list" "(a (b \"c\"";
  fails ~msg:"unexpected ')' at 2" "  )";
  fails ~msg:"unterminated string at 8" "(\"ab\\\"cd";
  fails ~msg:"dangling escape at 4" "\"ab\\";
  fails ~msg:"trailing garbage 'b' at 5" "a ; \nb";
  fails ~msg:"unexpected end of input" " ; only a comment"

let test_field () =
  let s = Sexpr.of_string "(rec (name foo) (size 3))" in
  check_string "field name" "foo" (Sexpr.to_atom (List.hd (Sexpr.field "name" s)));
  check_int "field size" 3 (Sexpr.to_int (List.hd (Sexpr.field "size" s)));
  check_bool "field_opt absent" true (Sexpr.field_opt "missing" s = None)

(* atoms cover the bytes the codec treats specially (see
   [awkward_string_gen]); the compact wire form and the file layout both
   parse back to the same tree, and the wire form is one line *)
let sexpr_gen =
  let open QCheck.Gen in
  let atom_gen =
    oneof [ map Sexpr.atom awkward_string_gen; map Sexpr.int int; map Sexpr.bool bool ]
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then atom_gen
          else
            frequency
              [ (2, atom_gen); (1, map Sexpr.list (list_size (int_range 0 5) (self (n / 2)))) ])
        (min n 8))

let qcheck_roundtrip =
  QCheck.Test.make ~count:(qcheck_count 500) ~name:"sexpr print/parse roundtrip"
    (QCheck.make ~print:(Format.asprintf "%a" Sexpr.pp) sexpr_gen)
    (fun s ->
      let wire = Sexpr.to_string s in
      sexpr_equal s (roundtrip s)
      && sexpr_equal s (Sexpr.of_string (Format.asprintf "%a" Sexpr.pp s))
      && not (String.contains wire '\n'))

let test_prng_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 50 do
    check_bool "same stream" true (Prng.next_int64 a = Prng.next_int64 b)
  done;
  let c = Prng.create 124 in
  check_bool "different seed differs" true (Prng.next_int64 (Prng.create 123) <> Prng.next_int64 c)

let qcheck_prng_bounds =
  QCheck.Test.make ~count:(qcheck_count 500) ~name:"prng int within bounds"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let p = Prng.create seed in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let test_prng_float_range () =
  let p = Prng.create 7 in
  for _ = 1 to 200 do
    let f = Prng.float p in
    check_bool "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_shuffle_is_permutation () =
  let p = Prng.create 99 in
  let arr = Array.init 30 (fun i -> i) in
  Prng.shuffle p arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check_bool "permutation" true (sorted = Array.init 30 (fun i -> i))

let test_prng_copy () =
  let p = Prng.create 5 in
  ignore (Prng.next_int64 p);
  let q = Prng.copy p in
  check_bool "copy continues identically" true (Prng.next_int64 p = Prng.next_int64 q)

let test_table_render () =
  let out = Text_table.render ~headers:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333" ] ] in
  let lines = String.split_on_char '\n' out in
  check_int "4 lines" 4 (List.length lines);
  check_bool "pad shorter rows" true (String.length (List.nth lines 3) >= 3)

let test_table_align () =
  let out =
    Text_table.render ~headers:[ "n" ] ~aligns:[ Text_table.Right ] [ [ "1" ]; [ "22" ] ]
  in
  check_bool "right aligned" true
    (String.split_on_char '\n' out |> fun l -> List.nth l 2 = " 1")

let test_bar () =
  check_string "full bar" "#####" (Text_table.bar ~width:5 ~max_value:10.0 10.0);
  check_string "empty on zero max" "" (Text_table.bar ~width:5 ~max_value:0.0 3.0);
  check_string "half bar" "##" (Text_table.bar ~width:4 ~max_value:10.0 5.0)

(* ---- Rwlock writer progress under reader pressure ---- *)

(* The DNA database's Rwlock sees a stream of short read sections
   (verdict queries from compile and server domains) with occasional
   writers (install/remove). The property: a writer always makes
   progress — [writes] write sections complete under continuous read
   pressure from [test_domains] domains, every reader observes only
   fully-applied writes (the pair invariant), and the final state
   reflects every write. A starvation-prone or deadlocking lock hangs
   this test rather than failing an assertion, so the reader loops are
   bounded by a deadline as a backstop. *)
let qcheck_rwlock_writer_progress =
  QCheck.Test.make ~count:(qcheck_count 10)
    ~name:"rwlock: writer progress and pair invariant under reader domains"
    QCheck.(pair (int_range 1 4) (int_range 10 60))
    (fun (writers, writes) ->
      let lock = Jitbull_util.Rwlock.create () in
      let a = ref 0 and b = ref 0 in
      let stop = Atomic.make false in
      let torn = Atomic.make 0 in
      let readers =
        List.init test_domains (fun _ ->
            Domain.spawn (fun () ->
                let deadline = Unix.gettimeofday () +. 10.0 in
                while
                  (not (Atomic.get stop)) && Unix.gettimeofday () < deadline
                do
                  Jitbull_util.Rwlock.with_read lock (fun () ->
                      if !a <> !b then Atomic.incr torn)
                done))
      in
      let writer_threads =
        List.init writers (fun _ ->
            Thread.create
              (fun () ->
                for _ = 1 to writes do
                  Jitbull_util.Rwlock.with_write lock (fun () ->
                      incr a;
                      (* widen the window a torn read would need to hit *)
                      if !a land 7 = 0 then Thread.yield ();
                      incr b)
                done)
              ())
      in
      List.iter Thread.join writer_threads;
      Atomic.set stop true;
      List.iter Domain.join readers;
      Atomic.get torn = 0 && !a = writers * writes && !b = !a)

let suite =
  ( "util",
    [
      Alcotest.test_case "sexpr atoms" `Quick test_atoms;
      Alcotest.test_case "sexpr parse" `Quick test_parse;
      Alcotest.test_case "sexpr comments" `Quick test_parse_comments;
      Alcotest.test_case "sexpr parse errors" `Quick test_parse_errors;
      Alcotest.test_case "sexpr field access" `Quick test_field;
      qtest qcheck_roundtrip;
      Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
      qtest qcheck_prng_bounds;
      Alcotest.test_case "prng float range" `Quick test_prng_float_range;
      Alcotest.test_case "prng shuffle permutation" `Quick test_prng_shuffle_is_permutation;
      Alcotest.test_case "prng copy" `Quick test_prng_copy;
      Alcotest.test_case "table render" `Quick test_table_render;
      Alcotest.test_case "table align" `Quick test_table_align;
      Alcotest.test_case "bar" `Quick test_bar;
      qtest qcheck_rwlock_writer_progress;
    ] )
