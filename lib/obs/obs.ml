type t = {
  m : Metrics.t;
  tr : Tracer.t;
  au : Audit.t;
  explain : bool;
}

let create ?capacity ?audit_capacity ?(explain = false) ?clock () =
  {
    m = Metrics.create ();
    tr = Tracer.create ?capacity ?clock ();
    au = Audit.create ?capacity:audit_capacity ?clock ();
    explain;
  }

let metrics t = t.m
let tracer t = t.tr
let audit t = t.au
let explain t = t.explain
let set_trace_file t path = Tracer.set_file_sink t.tr path
let set_audit_file t ?max_bytes path = Audit.set_file_sink t.au ?max_bytes path

let close = function
  | None -> ()
  | Some t ->
    Tracer.close t.tr;
    Audit.close t.au

let now = function None -> 0.0 | Some t -> Tracer.now t.tr

let span obs ?fields ?fields_of name f =
  match obs with
  | None -> f ()
  | Some t ->
    Tracer.with_span t.tr ?fields ?fields_of
      ~on_close:(fun dur -> Metrics.observe (Metrics.histogram t.m (name ^ ".seconds")) dur)
      name f

let time obs name f =
  match obs with
  | None -> f ()
  | Some t ->
    let t0 = Tracer.now t.tr in
    let finish () =
      Metrics.observe (Metrics.histogram t.m name) (Float.max 0.0 (Tracer.now t.tr -. t0))
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)

let event obs ?fields name =
  match obs with
  | None -> ()
  | Some t -> Tracer.event t.tr ?fields name

let incr obs name =
  match obs with
  | None -> ()
  | Some t -> Metrics.incr (Metrics.counter t.m name)

let add obs name n =
  match obs with
  | None -> ()
  | Some t -> Metrics.add (Metrics.counter t.m name) n

let set_gauge obs name v =
  match obs with
  | None -> ()
  | Some t -> Metrics.set (Metrics.gauge t.m name) v

let observe obs ?bounds name v =
  match obs with
  | None -> ()
  | Some t -> Metrics.observe (Metrics.histogram ?bounds t.m name) v

let view = function
  | None -> Metrics.snapshot (Metrics.create ())
  | Some t -> Metrics.snapshot t.m
