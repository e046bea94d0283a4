(* The reference kernel and the small statistics the benchmark reports.

   Raw seconds do not repeat on a shared host: the speed of the machine
   drifts by a factor of two within a minute. The kernel is fixed work that
   allocates nothing, in two halves: a register-machine interpreter running
   a fixed, seeded 1024-instruction program over a 1 MB table (indirect
   dispatch and data-dependent branches, the shape of the engine's own VM),
   then an integer loop over a table that stays in L1. It is timed before
   and after every sample, and a sample's [_ref] value is the sample's time
   divided by the mean of those two neighbouring kernel times, so whatever
   slowed the sample slowed its kernels too and cancels.

   Both halves are needed. Sampled side by side with engine runs for five
   minutes on a contended host, the interpreter's time correlated 0.8 with
   the engine's and the integer loop's only 0.1-0.4; but the interpreter
   alone swung further than the engine (engine time ~ kernel^0.6-0.7), so
   on a compile-bound workload a slower host read as a faster program.
   The sum tracks the engine with an exponent of 0.9. *)

let now = Unix.gettimeofday

let steps = 1_000_000
let loop_iters = 750_000
let code_len = 1024
let mem_words = 1 lsl 17

let ops, ra, rb, rc, target =
  let rng = Random.State.make [| 0x6b72 |] in
  let field bound = Array.init code_len (fun _ -> Random.State.int rng bound) in
  let ops = field 8 in
  let ra = field 8 in
  let rb = field 8 in
  let rc = field 8 in
  (ops, ra, rb, rc, field code_len)

let regs = Array.make 8 0

(* read-only and off the OCaml heap, so every run does the same work and
   the kernel adds nothing to the peak heap *)
let mem =
  let rng = Random.State.make [| 0x6d65 |] in
  let m = Bigarray.Array1.create Bigarray.int Bigarray.c_layout mem_words in
  for i = 0 to mem_words - 1 do
    m.{i} <- Random.State.bits rng
  done;
  m

let table = Array.init 4096 (fun i -> (i * 0x9E3779B1) land 0xFFFF)

(* the interpreter half *)
let interp () =
  let mask = mem_words - 1 in
  Array.iteri (fun i _ -> regs.(i) <- i * 7919) regs;
  let pc = ref 0 in
  for _ = 1 to steps do
    let i = !pc in
    let a = Array.unsafe_get ra i and b = Array.unsafe_get rb i and c = Array.unsafe_get rc i in
    let next =
      match Array.unsafe_get ops i with
      | 0 -> regs.(a) <- regs.(b) + regs.(c); i + 1
      | 1 -> regs.(a) <- regs.(b) lxor (regs.(c) lsl 3); i + 1
      | 2 -> regs.(a) <- (regs.(b) lsr 5) + 17; i + 1
      | 3 -> regs.(a) <- Bigarray.Array1.unsafe_get mem (regs.(b) land mask); i + 1
      | 4 -> if regs.(a) land 1 = 0 then Array.unsafe_get target i else i + 1
      | 5 -> regs.(a) <- regs.(a) + Bigarray.Array1.unsafe_get mem (regs.(c) land mask); i + 1
      | 6 -> regs.(a) <- (regs.(b) * 31) + regs.(c); i + 1
      | _ -> if regs.(c) > regs.(b) then Array.unsafe_get target i else i + 1
    in
    pc := next land (code_len - 1)
  done;
  regs.(0)

(* the loop half: xorshift64 steering loads from [table], in registers *)
let loop () =
  let x = ref 0x2545F4914F6CDD1D in
  let acc = ref 0 in
  for _ = 1 to loop_iters do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc := !acc + Array.unsafe_get table (!x land 4095)
  done;
  !acc

let interp_times = ref []
let loop_times = ref []

let time_kernel () =
  let t0 = now () in
  ignore (Sys.opaque_identity (interp ()));
  let t1 = now () in
  ignore (Sys.opaque_identity (loop ()));
  let t2 = now () in
  interp_times := (t1 -. t0) :: !interp_times;
  loop_times := (t2 -. t1) :: !loop_times;
  t2 -. t0

(* Every timed call goes through one sampler, so each sample has a kernel
   run on both sides and consecutive samples share the kernel between
   them. *)
type sampler = {
  mutable last : float;
  mutable kernels : float list;
  mutable kernel_seconds : float;  (** wall time spent in the kernel *)
  mutable gc_seconds : float;  (** wall time spent collecting between samples *)
}

let sampler () =
  let k = time_kernel () in
  { last = k; kernels = [ k ]; kernel_seconds = k; gc_seconds = 0.0 }

(* [sample s f] = (result, raw seconds, seconds / mean neighbouring kernel).
   The heap is collected first, untimed, so no sample pays for the garbage
   of the one before it: on the allocation-heavy programs that debt alone
   moved a program's time by a third from run to run. *)
let sample s f =
  let k0 = s.last in
  let g0 = now () in
  Gc.full_major ();
  let t0 = now () in
  s.gc_seconds <- s.gc_seconds +. (t0 -. g0);
  let r = f () in
  let dt = now () -. t0 in
  let k1 = time_kernel () in
  s.last <- k1;
  s.kernels <- k1 :: s.kernels;
  s.kernel_seconds <- s.kernel_seconds +. k1;
  (r, dt, dt /. ((k0 +. k1) /. 2.0))

(* ---- statistics ---- *)

(* linear interpolation between closest ranks, as Python's
   [statistics.quantiles(method="inclusive")] *)
let quantile xs q =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5

(* The highest reported percentile that still has at least ten samples
   beyond it; [None] under forty samples. *)
let tail_level n =
  List.find_opt (fun p -> float_of_int n *. (1.0 -. p) >= 10.0) [ 0.99; 0.9; 0.75 ]

let geomean = function
  | [] -> 0.0
  | xs ->
    exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* "median 1.2340 p90 1.4560 n 40": the shape every timing is printed in *)
let describe xs =
  let n = List.length xs in
  match tail_level n with
  | Some p ->
    Printf.sprintf "median %.4f p%g %.4f n %d" (median xs) (p *. 100.0) (quantile xs p) n
  | None -> Printf.sprintf "median %.4f n %d (too few for a tail)" (median xs) n
