(* Per-bytecode-site type feedback collected by the interpreter tier, in the
   role of SpiderMonkey's Baseline inline caches: the MIR builder speculates
   (and inserts guards) only where the interpreter has seen a stable type. *)

type site = {
  mutable saw_array_int : bool;  (* Get/Set_index: Array receiver & int index *)
  mutable saw_other_index : bool;  (* Get/Set_index: anything else *)
  mutable saw_number : bool;  (* Binop: both operands numbers *)
  mutable saw_non_number : bool;
  mutable saw_array_recv : bool;  (* member/method sites: Array receiver *)
  mutable saw_other_recv : bool;
}

type t = site array array  (* function index → pc → site *)

let fresh_site () =
  {
    saw_array_int = false;
    saw_other_index = false;
    saw_number = false;
    saw_non_number = false;
    saw_array_recv = false;
    saw_other_recv = false;
  }

let create (program : Op.program) : t =
  Array.map
    (fun (f : Op.func) -> Array.init (Array.length f.Op.code) (fun _ -> fresh_site ()))
    program.Op.funcs

(* Site accessors used by the MIR builder. *)

let site (t : t) ~func ~pc = t.(func).(pc)

(* An index site is a candidate for the guarded array fast path when the
   interpreter only ever saw array/int accesses there (and saw at least
   one, so we have evidence). *)
let array_fast_path (s : site) = s.saw_array_int && not s.saw_other_index

let numeric_fast_path (s : site) = s.saw_number && not s.saw_non_number

let array_receiver (s : site) = s.saw_array_recv && not s.saw_other_recv
