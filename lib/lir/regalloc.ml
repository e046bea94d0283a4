(* Operand classification: which fields of an instruction hold register
   numbers (sources), and whether [dst] is a definition. [Ktest] uses [b]
   as a branch target and [Kcall]/[Kcall_method] reference registers
   through the [call_args] side table. *)

let iter_sources (f : Lir.func) (i : Lir.inst) k =
  let reg x = if x >= 0 then k x in
  match i.Lir.kind with
  | Lir.Kconst | Lir.Kparam | Lir.Knew_array | Lir.Knew_object | Lir.Kload_global
  | Lir.Kdeclare_global | Lir.Kgoto ->
    ()
  | Lir.Kmove | Lir.Kunbox_number | Lir.Kunbox_int32 | Lir.Kguard_array | Lir.Knegate
  | Lir.Kbitnot | Lir.Knot | Lir.Ktypeof | Lir.Ktonumber | Lir.Kelements
  | Lir.Kinit_length | Lir.Karray_length | Lir.Karray_pop | Lir.Kget_prop
  | Lir.Kstore_global | Lir.Ktest | Lir.Kreturn ->
    reg i.Lir.a
  | Lir.Kbounds_check | Lir.Kadd | Lir.Kbin _ | Lir.Kcompare _ | Lir.Kload_element
  | Lir.Kset_array_length | Lir.Karray_push | Lir.Kset_prop | Lir.Kget_index_gen ->
    reg i.Lir.a;
    reg i.Lir.b
  | Lir.Kstore_element | Lir.Kset_index_gen ->
    reg i.Lir.a;
    reg i.Lir.b;
    reg i.Lir.c
  | Lir.Kcall | Lir.Kcall_method ->
    reg i.Lir.a;
    Array.iter reg f.Lir.call_args.(i.Lir.imm)

(* Bitsets over vregs: [w] words of [Sys.int_size] bits per set, many
   sets packed in one int array at offsets [base]. *)
let bits = Sys.int_size

let set_bit s base v =
  let j = base + (v / bits) in
  s.(j) <- s.(j) lor (1 lsl (v mod bits))

let mem_bit s base v = s.(base + (v / bits)) land (1 lsl (v mod bits)) <> 0

let iter_bits s base w k =
  for j = 0 to w - 1 do
    let x = ref s.(base + j) and v = ref (j * bits) in
    while !x <> 0 do
      if !x land 1 <> 0 then k !v;
      x := !x lsr 1;
      incr v
    done
  done

(* Live intervals as (start, stop) per vreg, [max_int]/[-1] for a vreg
   the code never mentions. Liveness is a backward fixed point over basic
   blocks; a vreg's interval is the hull of its def/use pcs, the first pc
   of each block it is live into and the last pc of each block it is live
   out of. That is exactly the hull of the pcs where it is defined, used
   or live on entry to the instruction: inside a block, liveness at a pc
   past the first without a def or use there implies a def just before
   it or liveness at the block's start, and liveness before a pc short of
   the last implies a use at or after it or liveness at the block's end. *)
let intervals (f : Lir.func) =
  let code = f.Lir.code in
  let n = Array.length code and nv = f.Lir.n_regs in
  let start = Array.make nv max_int and stop = Array.make nv (-1) in
  let touch pc v =
    if v < nv then begin
      if pc < start.(v) then start.(v) <- pc;
      if pc > stop.(v) then stop.(v) <- pc
    end
  in
  if n > 0 then begin
    (* blocks: pc 0, branch targets and the pc after a branch or return *)
    let leader = Array.make (n + 1) false in
    leader.(0) <- true;
    Array.iteri
      (fun pc (i : Lir.inst) ->
        match i.Lir.kind with
        | Lir.Kgoto ->
          leader.(i.Lir.imm) <- true;
          leader.(pc + 1) <- true
        | Lir.Ktest ->
          leader.(i.Lir.imm) <- true;
          leader.(i.Lir.b) <- true;
          leader.(pc + 1) <- true
        | Lir.Kreturn -> leader.(pc + 1) <- true
        | _ -> ())
      code;
    let block_of = Array.make n 0 in
    let nb = ref 0 in
    for pc = 0 to n - 1 do
      if leader.(pc) then incr nb;
      block_of.(pc) <- !nb - 1
    done;
    let nb = !nb in
    let first = Array.make nb 0 and last = Array.make nb 0 in
    for pc = n - 1 downto 0 do
      first.(block_of.(pc)) <- pc
    done;
    for pc = 0 to n - 1 do
      last.(block_of.(pc)) <- pc
    done;
    (* successor blocks (-1: none); a fall-through off the end raises *)
    let succ1 = Array.make nb (-1) and succ2 = Array.make nb (-1) in
    for b = 0 to nb - 1 do
      let e = last.(b) in
      let i = code.(e) in
      match i.Lir.kind with
      | Lir.Kgoto -> succ1.(b) <- block_of.(i.Lir.imm)
      | Lir.Ktest ->
        succ1.(b) <- block_of.(i.Lir.imm);
        succ2.(b) <- block_of.(i.Lir.b)
      | Lir.Kreturn -> ()
      | _ -> succ1.(b) <- block_of.(e + 1)
    done;
    (* per-block upward-exposed uses and defs, and the hull's def/use pcs *)
    let w = (nv + bits - 1) / bits in
    let use = Array.make (nb * w) 0 and def = Array.make (nb * w) 0 in
    (* one source visitor for the whole walk, reading the current pc and
       block from two cells *)
    let cur_pc = ref 0 and cur_base = ref 0 in
    let source v =
      if v < nv then begin
        if not (mem_bit def !cur_base v) then set_bit use !cur_base v;
        touch !cur_pc v
      end
    in
    for pc = 0 to n - 1 do
      let i = code.(pc) and base = block_of.(pc) * w in
      cur_pc := pc;
      cur_base := base;
      iter_sources f i source;
      let d = i.Lir.dst in
      if d >= 0 && d < nv then begin
        set_bit def base d;
        touch pc d
      end
    done;
    (* live-in = use ∪ (live-out \ def), to the least fixed point *)
    let live_in = Array.make (nb * w) 0 and live_out = Array.make (nb * w) 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      for b = nb - 1 downto 0 do
        let base = b * w and s1 = succ1.(b) and s2 = succ2.(b) in
        for j = 0 to w - 1 do
          let out =
            (if s1 >= 0 then live_in.((s1 * w) + j) else 0)
            lor if s2 >= 0 then live_in.((s2 * w) + j) else 0
          in
          live_out.(base + j) <- out;
          let inn = use.(base + j) lor (out land lnot def.(base + j)) in
          if inn <> live_in.(base + j) then begin
            live_in.(base + j) <- inn;
            changed := true
          end
        done
      done
    done;
    for b = 0 to nb - 1 do
      iter_bits live_in (b * w) w (touch first.(b));
      iter_bits live_out (b * w) w (touch last.(b))
    done
  end;
  (start, stop)

let allocate (f : Lir.func) =
  let n = Array.length f.Lir.code in
  let nv = f.Lir.n_regs in
  if n = 0 then ()
  else begin
    let start, stop = intervals f in
    (* intervals by start, ties by vreg: a counting sort *)
    let pos = Array.make (n + 1) 0 in
    let m = ref 0 in
    for v = 0 to nv - 1 do
      if stop.(v) >= 0 then begin
        pos.(start.(v) + 1) <- pos.(start.(v) + 1) + 1;
        incr m
      end
    done;
    for pc = 1 to n do
      pos.(pc) <- pos.(pc) + pos.(pc - 1)
    done;
    let order = Array.make !m 0 in
    for v = 0 to nv - 1 do
      if stop.(v) >= 0 then begin
        order.(pos.(start.(v))) <- v;
        pos.(start.(v)) <- pos.(start.(v)) + 1
      end
    done;
    (* linear scan: free registers in a FIFO ring, the active intervals
       as (stop, reg) sorted by stop, a new one before equal stops *)
    let k = Lir.machine_registers in
    let free = Array.init k Fun.id and free_head = ref 0 and n_free = ref k in
    let act_stop = Array.make k 0 and act_reg = Array.make k 0 and n_act = ref 0 in
    let assignment = Array.make nv (-1) in
    let next_slot = ref k in
    let spills = ref 0 in
    Array.iter
      (fun v ->
        (* expire the prefix that ends before [v] starts *)
        let e = ref 0 in
        while !e < !n_act && act_stop.(!e) < start.(v) do
          free.((!free_head + !n_free) mod k) <- act_reg.(!e);
          incr n_free;
          incr e
        done;
        let e = !e in
        Array.blit act_stop e act_stop 0 (!n_act - e);
        Array.blit act_reg e act_reg 0 (!n_act - e);
        n_act := !n_act - e;
        if !n_free = 0 then begin
          (* spill the current interval (simple policy: new interval
             spills; hot early-start values keep registers) *)
          assignment.(v) <- !next_slot;
          incr next_slot;
          incr spills
        end
        else begin
          let r = free.(!free_head) in
          free_head := (!free_head + 1) mod k;
          decr n_free;
          assignment.(v) <- r;
          let at = ref 0 in
          while !at < !n_act && act_stop.(!at) < stop.(v) do
            incr at
          done;
          Array.blit act_stop !at act_stop (!at + 1) (!n_act - !at);
          Array.blit act_reg !at act_reg (!at + 1) (!n_act - !at);
          act_stop.(!at) <- stop.(v);
          act_reg.(!at) <- r;
          incr n_act
        end)
      order;
    (* rewrite register fields *)
    let map v = if v >= 0 && assignment.(v) >= 0 then assignment.(v) else v in
    Array.iter
      (fun (i : Lir.inst) ->
        (match i.Lir.kind with
        | Lir.Ktest ->
          i.Lir.a <- map i.Lir.a  (* b is a branch target *)
        | Lir.Kcall | Lir.Kcall_method ->
          i.Lir.a <- map i.Lir.a;
          let args = f.Lir.call_args.(i.Lir.imm) in
          Array.iteri (fun j r -> args.(j) <- map r) args
        | _ ->
          i.Lir.a <- map i.Lir.a;
          i.Lir.b <- map i.Lir.b;
          i.Lir.c <- map i.Lir.c);
        i.Lir.dst <- map i.Lir.dst)
      f.Lir.code;
    f.Lir.n_regs <- max Lir.machine_registers !next_slot;
    f.Lir.spill_count <- !spills
  end
