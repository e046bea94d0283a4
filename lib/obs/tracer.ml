module Ring = Jitbull_util.Ring

type kind =
  | Span
  | Point

type event = {
  seq : int;
  ts : float;
  id : int;
  parent : int option;
  kind : kind;
  name : string;
  dur : float;
  depth : int;
  fields : (string * Jsonx.t) list;
}

(* One mutex per tracer serializes the ring and the file sink: jitbulld's
   handler domains and a client's subscriber and pusher threads record
   into one tracer concurrently.

   Event ids come from one process-wide atomic counter, while the stack
   of open spans lives in domain-local storage and is shared by every
   tracer on that domain, so ids stay unique across tracers, and nesting
   (default parents and depths) is exact per domain even when several
   domains record into one tracer. *)
type t = {
  ring : event Ring.t;  (* its total doubles as next seq *)
  mutable sink : Sink.t option;
  mu : Mutex.t;
  clock : unit -> float;
  start : float;
}

let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

(* Per-domain stack of open span ids, innermost first. *)
let context_key : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get context_key
let innermost st = match st with [] -> None | id :: _ -> Some id

let create ?(capacity = 4096) ?(clock : (unit -> float) option) () =
  let clock = match clock with Some c -> c | None -> Clock.now in
  {
    ring = Ring.create ~capacity;
    sink = None;
    mu = Mutex.create ();
    clock;
    start = clock ();
  }

let now t = t.clock () -. t.start

let set_file_sink t path =
  let sink = Sink.create ~what:"trace" path in
  Mutex.protect t.mu (fun () ->
      Option.iter Sink.close t.sink;
      t.sink <- Some sink)

let kind_to_string = function Span -> "span" | Point -> "event"

let kind_of_string = function
  | "span" -> Span
  | "event" -> Point
  | s -> raise (Jsonx.Parse_error ("unknown event kind " ^ s))

let event_to_json e =
  Jsonx.Assoc
    [
      ("seq", Jsonx.Int e.seq);
      ("ts", Jsonx.Float e.ts);
      ("id", Jsonx.Int e.id);
      ("parent", (match e.parent with Some p -> Jsonx.Int p | None -> Jsonx.Null));
      ("kind", Jsonx.String (kind_to_string e.kind));
      ("name", Jsonx.String e.name);
      ("dur", Jsonx.Float e.dur);
      ("depth", Jsonx.Int e.depth);
      ("fields", Jsonx.Assoc e.fields);
    ]

let event_of_json j =
  let fields =
    match Jsonx.member "fields" j with
    | Jsonx.Assoc fs -> fs
    | Jsonx.Null -> []
    | _ -> raise (Jsonx.Parse_error "event fields must be an object")
  in
  {
    seq = Jsonx.to_int (Jsonx.member "seq" j);
    ts = Jsonx.to_float (Jsonx.member "ts" j);
    (* pre-correlation traces carry neither field: id 0 is never allocated *)
    id = (match Jsonx.member "id" j with Jsonx.Null -> 0 | v -> Jsonx.to_int v);
    parent =
      (match Jsonx.member "parent" j with
      | Jsonx.Null -> None
      | v -> Some (Jsonx.to_int v));
    kind = kind_of_string (Jsonx.to_str (Jsonx.member "kind" j));
    name = Jsonx.to_str (Jsonx.member "name" j);
    dur = Jsonx.to_float (Jsonx.member "dur" j);
    depth = Jsonx.to_int (Jsonx.member "depth" j);
    fields;
  }

let record t ~ts ~id ~parent ~depth ~kind ~dur ~fields name =
  Mutex.protect t.mu (fun () ->
      let e = { seq = Ring.total t.ring; ts; id; parent; kind; name; dur; depth; fields } in
      Ring.push t.ring e;
      Option.iter (fun s -> Sink.write s (Jsonx.to_string (event_to_json e))) t.sink)

let event t ?(fields = []) name =
  let st = !(stack ()) in
  record t ~ts:(now t) ~id:(fresh_id ()) ~parent:(innermost st) ~depth:(List.length st)
    ~kind:Point ~dur:0.0 ~fields name

let with_span t ?(fields = []) ?fields_of ?on_close name f =
  let t0 = now t in
  let id = fresh_id () in
  let st = stack () in
  let parent = innermost !st in
  st := id :: !st;
  let span_depth = List.length !st in
  let finish extra =
    let dur = Float.max 0.0 (now t -. t0) in
    (match !st with
    | top :: rest when top = id -> st := rest
    | other ->
      (* unbalanced nesting (an exception tore through a sibling span):
         drop down to below our frame rather than corrupting the stack *)
      st := (match List.find_index (Int.equal id) other with
            | Some i -> List.filteri (fun j _ -> j > i) other
            | None -> other));
    record t ~ts:t0 ~id ~parent ~depth:span_depth ~kind:Span ~dur
      ~fields:(fields @ extra) name;
    match on_close with Some g -> g dur | None -> ()
  in
  match f () with
  | v ->
    let extra = match fields_of with Some g -> g v | None -> [] in
    finish extra;
    v
  | exception e ->
    finish [ ("error", Jsonx.String (Printexc.to_string e)) ];
    raise e

let events t = Mutex.protect t.mu (fun () -> Ring.to_list t.ring)
let total_recorded t = Ring.total t.ring

let close t = Mutex.protect t.mu (fun () -> Option.iter Sink.close t.sink)
