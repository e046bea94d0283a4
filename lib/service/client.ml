module Http = Jitbull_obs.Http_export
module Obs = Jitbull_obs.Obs
module Metrics = Jitbull_obs.Metrics
module Audit = Jitbull_obs.Audit
module Fleet = Jitbull_obs.Fleet
module Propagate = Jitbull_obs.Propagate
module Jsonx = Jitbull_obs.Jsonx
module Sexpr = Jitbull_util.Sexpr
module Engine = Jitbull_jit.Engine
module Db = Jitbull_core.Db
module Dna = Jitbull_core.Dna
module Comparator = Jitbull_core.Comparator
module Jitbull = Jitbull_core.Jitbull

(* ---- stateless round-trip on a raw connection (bench clients) ---- *)

let verdict_roundtrip conn ?headers reqs =
  let count = List.length reqs in
  match
    Http.Conn.request conn ~meth:"POST" ?headers ~body:(Proto.encode_reqs reqs) "/verdict"
  with
  | 200, _, body -> (
    match Proto.decode_resps body with
    | resps when List.length resps = count -> Ok resps
    | resps ->
      Error
        (Printf.sprintf "short batch: %d responses to %d requests"
           (List.length resps) count)
    | exception Jsonx.Parse_error msg -> Error ("bad response: " ^ msg))
  | status, _, body -> Error (Printf.sprintf "HTTP %d: %s" status body)
  | exception Http.Closed -> Error "connection closed"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* ---- the coalescer: many engine threads, one wire batch ---- *)

type pending = {
  p_req : Proto.verdict_req;
  p_parent : int option;
      (** the submitting thread's open span at submit time — the remote
          parent the wire batch's traceparent header carries *)
  mutable p_result : (Proto.verdict_resp, string) result option;
}

type coalescer = {
  c_mu : Mutex.t;
  c_nonempty : Condition.t;  (** queue went non-empty (dispatcher waits) *)
  c_done : Condition.t;  (** results were written (submitters wait) *)
  c_not_full : Condition.t;  (** space freed (submitters blocked on bound) *)
  c_queue : pending Queue.t;
  c_max_batch : int;
  c_max_queue : int;
  mutable c_stop : bool;
}

type t = {
  port : int;
  timeout_s : float;
  obs : Obs.t option;
  client_id : string;  (** fleet label ([x-jitbull-client] header) *)
  trace_id : string;  (** this client's traceparent trace id *)
  push_interval_s : float option;  (** telemetry push cadence, if any *)
  mutable pushed_seq : int;  (** audit seq already pushed (delta cursor) *)
  gen : int Atomic.t;  (** latest server generation this client observed *)
  replica : Db.t;  (** local-fallback DB, synced via [/delta] *)
  replica_gen : int Atomic.t;  (** server generation [replica] reflects *)
  replica_mu : Mutex.t;  (** serializes replica syncs *)
  coal : coalescer;
  mutable disp_conn : Http.Conn.t option;  (** dispatcher's connection *)
  sub_mu : Mutex.t;
  mutable sub_conn : Http.Conn.t option;
      (** subscriber's connection; {!close} shuts it down to interrupt
          the long poll *)
  caches : (Mutex.t * Engine.Policy_cache.t list ref);
      (** engine policy caches to flush eagerly on a push *)
  on_push : (Mutex.t * (int -> unit) list ref);
  stop_flag : bool Atomic.t;
  mutable threads : Thread.t list;
}

let generation t = Atomic.get t.gen
let replica t = t.replica
let client_id t = t.client_id
let trace_id t = t.trace_id

(* ---- dispatcher ---- *)

let dispatcher_conn t =
  match t.disp_conn with
  | Some c -> c
  | None ->
    let c = Http.Conn.connect ~timeout_s:t.timeout_s ~port:t.port () in
    t.disp_conn <- Some c;
    c

let drop_dispatcher_conn t =
  match t.disp_conn with
  | Some c ->
    Http.Conn.close c;
    t.disp_conn <- None
  | None -> ()

let note_generation t g =
  (* max-update: responses may arrive out of order w.r.t. pushes *)
  let rec go () =
    let cur = Atomic.get t.gen in
    if g > cur && not (Atomic.compare_and_set t.gen cur g) then go ()
  in
  go ()

(* One wire round-trip for [batch] (already numbered 0..n-1), writing
   each slot's result. Reconnects and retries once on a transport
   error — the request is idempotent (a pure query).

   Propagation is batch-granular: the coalescer folds many submitters
   into one HTTP request, so the traceparent header carries the first
   pending's captured span as the batch's remote parent (one server
   span per wire round-trip, parented on the submitter that opened the
   batch), and x-jitbull-client labels every request from this
   client. *)
let dispatch_batch t batch =
  let reqs = List.mapi (fun i p -> { p.p_req with Proto.vr_id = i }) batch in
  let headers =
    ("x-jitbull-client", t.client_id)
    ::
    (match List.find_map (fun p -> p.p_parent) batch with
    | Some parent ->
      [
        ( Propagate.header_name,
          Propagate.encode
            { Propagate.trace_id = t.trace_id; parent_id = parent } );
      ]
    | None -> [])
  in
  let attempt () =
    match verdict_roundtrip (dispatcher_conn t) ~headers reqs with
    | Ok resps -> Ok resps
    | Error e ->
      drop_dispatcher_conn t;
      Error e
    | exception e ->
      drop_dispatcher_conn t;
      Error (Printexc.to_string e)
  in
  let result = match attempt () with Ok r -> Ok r | Error _ -> attempt () in
  match result with
  | Ok resps ->
    let by_id = Hashtbl.create (List.length resps) in
    List.iter (fun (r : Proto.verdict_resp) ->
        note_generation t r.Proto.vs_generation;
        Hashtbl.replace by_id r.Proto.vs_id r)
      resps;
    List.iteri
      (fun i p ->
        p.p_result <-
          Some
            (match Hashtbl.find_opt by_id i with
            | Some r -> Ok r
            | None -> Error "missing response id"))
      batch
  | Error e -> List.iter (fun p -> p.p_result <- Some (Error e)) batch

let dispatcher_loop t =
  let c = t.coal in
  let running = ref true in
  while !running do
    Mutex.lock c.c_mu;
    while Queue.is_empty c.c_queue && not c.c_stop do
      Condition.wait c.c_nonempty c.c_mu
    done;
    if c.c_stop && Queue.is_empty c.c_queue then begin
      Mutex.unlock c.c_mu;
      running := false
    end
    else begin
      let batch = ref [] in
      while (not (Queue.is_empty c.c_queue)) && List.length !batch < c.c_max_batch
      do
        batch := Queue.pop c.c_queue :: !batch
      done;
      Condition.broadcast c.c_not_full;
      Mutex.unlock c.c_mu;
      let batch = List.rev !batch in
      dispatch_batch t batch;
      Mutex.lock c.c_mu;
      Condition.broadcast c.c_done;
      Mutex.unlock c.c_mu
    end
  done

(* Enqueue one request and block until the dispatcher resolves it. The
   queue is bounded: when [c_max_queue] requests are already waiting,
   submit blocks (backpressure) rather than growing the batch beyond
   what one round-trip should carry. *)
let submit t (req : Proto.verdict_req) =
  (* capture the caller's open span before taking the coalescer lock:
     the dispatcher thread that sends the batch has no useful context *)
  let parent = Obs.current_span t.obs in
  let c = t.coal in
  Mutex.lock c.c_mu;
  if c.c_stop then begin
    Mutex.unlock c.c_mu;
    Error "client closed"
  end
  else begin
    while Queue.length c.c_queue >= c.c_max_queue && not c.c_stop do
      Condition.wait c.c_not_full c.c_mu
    done;
    if c.c_stop then begin
      Mutex.unlock c.c_mu;
      Error "client closed"
    end
    else begin
      let p = { p_req = req; p_parent = parent; p_result = None } in
      Queue.push p c.c_queue;
      Condition.signal c.c_nonempty;
      while p.p_result = None && not c.c_stop do
        Condition.wait c.c_done c.c_mu
      done;
      let r =
        match p.p_result with Some r -> r | None -> Error "client closed"
      in
      Mutex.unlock c.c_mu;
      r
    end
  end

(* ---- replica sync (the local-fallback DB) ---- *)

(* Every request this client issues — verdict batches, replica syncs,
   long polls, telemetry pushes — carries its fleet label, so server
   logs and spans attribute wire traffic per client even off the
   verdict path. *)
let base_headers t = [ ("x-jitbull-client", t.client_id) ]

let fetch_json conn ?headers ?timeout_s path =
  match Http.Conn.request conn ?headers ?timeout_s path with
  | 200, _, body -> Ok (Jsonx.parse body)
  | status, _, body -> Error (Printf.sprintf "HTTP %d: %s" status body)

(* Pull [/delta] against the replica's generation and apply it. The
   server numbers generations by its own history, so the replica's
   entry list is maintained to mirror the server's and [replica_gen]
   tracks the server generation it reflects — [t.replica]'s own
   generation counter moves too (every apply bumps it), which is what
   invalidates fallback verdicts decided against an older replica. *)
let sync_replica t conn =
  Mutex.lock t.replica_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.replica_mu)
    (fun () ->
      match
        fetch_json conn ~headers:(base_headers t)
          (Printf.sprintf "/delta?gen=%d" (Atomic.get t.replica_gen))
      with
      | Error e -> Error e
      | Ok j -> (
        match
          let gen = Jsonx.to_int (Jsonx.member "generation" j) in
          let entries =
            List.map
              (fun s -> Db.entry_of_sexpr (Sexpr.of_string (Jsonx.to_str s)))
              (Jsonx.to_list_exn (Jsonx.member "entries" j))
          in
          (match Jsonx.to_str (Jsonx.member "mode" j) with
          | "append" -> List.iter (fun e -> Db.add t.replica e) entries
          | _ ->
            (* resync: drop everything, then append the snapshot *)
            List.iter (fun cve -> Db.remove_cve t.replica cve)
              (Db.cves t.replica);
            List.iter (fun e -> Db.add t.replica e) entries);
          gen
        with
        | gen ->
          Atomic.set t.replica_gen gen;
          note_generation t gen;
          Ok gen
        | exception Jsonx.Parse_error msg -> Error ("bad delta: " ^ msg)
        | exception Sexpr.Decode_error msg -> Error ("bad delta: " ^ msg)))

let with_conn t f =
  let conn = Http.Conn.connect ~timeout_s:t.timeout_s ~port:t.port () in
  Fun.protect ~finally:(fun () -> Http.Conn.close conn) (fun () -> f conn)

let sync t = with_conn t (fun conn -> sync_replica t conn)

(* ---- push subscription ---- *)

let register_cache t cache =
  let mu, l = t.caches in
  Mutex.lock mu;
  l := cache :: !l;
  Mutex.unlock mu

let on_push t f =
  let mu, l = t.on_push in
  Mutex.lock mu;
  l := f :: !l;
  Mutex.unlock mu

let apply_push t gen =
  (* order matters for the no-stale-verdict guarantee: advance the
     generation the policy caches key on FIRST (any later lookup now
     revalidates against the post-push generation), then eagerly flush,
     then resync the replica *)
  note_generation t gen;
  let cmu, caches = t.caches in
  Mutex.lock cmu;
  let cs = !caches in
  Mutex.unlock cmu;
  List.iter Engine.Policy_cache.flush cs;
  Obs.incr t.obs "engine.remote_pushes";
  let pmu, fs = t.on_push in
  Mutex.lock pmu;
  let fs = !fs in
  Mutex.unlock pmu;
  List.iter (fun f -> f gen) fs

let subscriber_loop t =
  let get_conn () =
    Mutex.lock t.sub_mu;
    let c =
      match t.sub_conn with
      | Some c -> c
      | None ->
        let c = Http.Conn.connect ~timeout_s:t.timeout_s ~port:t.port () in
        t.sub_conn <- Some c;
        c
    in
    Mutex.unlock t.sub_mu;
    c
  in
  let drop_conn () =
    Mutex.lock t.sub_mu;
    (match t.sub_conn with Some c -> Http.Conn.close c | None -> ());
    t.sub_conn <- None;
    Mutex.unlock t.sub_mu
  in
  while not (Atomic.get t.stop_flag) do
    match
      let c = get_conn () in
      (* long poll well past the server's wait; the request-level timeout
         keeps a dead server from hanging us forever, and [close]
         interrupts via [Conn.shutdown] *)
      fetch_json c ~headers:(base_headers t) ~timeout_s:35.0
        (Printf.sprintf "/subscribe?gen=%d&timeout_ms=30000"
           (Atomic.get t.gen))
    with
    | Ok j -> (
      match Jsonx.to_int (Jsonx.member "generation" j) with
      | g ->
        if g > Atomic.get t.gen then begin
          apply_push t g;
          ignore (sync_replica t (get_conn ()) : (int, string) result)
        end
      | exception Jsonx.Parse_error _ -> drop_conn ())
    | Error _ ->
      drop_conn ();
      if not (Atomic.get t.stop_flag) then Unix.sleepf 0.2
    | exception _ ->
      drop_conn ();
      if not (Atomic.get t.stop_flag) then Unix.sleepf 0.2
  done;
  drop_conn ()

(* ---- fleet telemetry push ---- *)

(* Build and POST one cumulative snapshot + audit delta. Totals are
   cumulative, so re-pushing is idempotent server-side; the delta
   cursor [pushed_seq] only advances on a 200, so records carried by a
   failed push ride again on the next one. *)
let push t =
  match t.obs with
  | None -> Ok 0
  | Some o ->
    let audit = Obs.audit o in
    let snapshot =
      {
        Fleet.sn_client = t.client_id;
        sn_ts = Obs.now t.obs;
        sn_totals = Audit.totals audit;
        sn_install_p99 =
          Metrics.quantile
            (Metrics.histogram ~bounds:Metrics.queue_latency_bounds
               (Obs.metrics o) "compile.install_latency_seconds")
            0.99;
        sn_metrics = Metrics.view_to_json (Obs.view t.obs);
      }
    in
    (* bound the wire payload; the tail rides on the next push *)
    let deltas =
      List.filteri (fun i _ -> i < 512) (Audit.since audit t.pushed_seq)
    in
    let body = Fleet.encode_push snapshot deltas in
    (match
       with_conn t (fun conn ->
           Http.Conn.request conn ~meth:"POST" ~headers:(base_headers t)
             ~body "/push")
     with
    | 200, _, _ ->
      (match List.rev deltas with
      | last :: _ -> t.pushed_seq <- last.Audit.seq + 1
      | [] -> ());
      Obs.incr t.obs "engine.fleet_pushes";
      Ok (List.length deltas)
    | status, _, body -> Error (Printf.sprintf "HTTP %d: %s" status body)
    | exception Http.Closed -> Error "connection closed"
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

let pusher_loop t interval =
  while not (Atomic.get t.stop_flag) do
    (* chunked sleep so close never waits out a long interval *)
    let deadline = Unix.gettimeofday () +. interval in
    while (not (Atomic.get t.stop_flag)) && Unix.gettimeofday () < deadline do
      Unix.sleepf (Float.min 0.05 interval)
    done;
    if not (Atomic.get t.stop_flag) then
      ignore (push t : (int, string) result)
  done

(* ---- lifecycle ---- *)

let connect ?(timeout_s = 2.0) ?(max_batch = 32) ?(max_queue = 256) ?obs
    ?(subscribe = true) ?client_id ?push_interval_s ~port () =
  let client_id =
    match client_id with
    | Some c -> c
    | None -> "pid-" ^ string_of_int (Unix.getpid ())
  in
  let t =
    {
      port;
      timeout_s;
      obs;
      client_id;
      trace_id = Propagate.fresh_trace_id ();
      push_interval_s;
      pushed_seq = 0;
      gen = Atomic.make 0;
      replica = Db.create ();
      replica_gen = Atomic.make 0;
      replica_mu = Mutex.create ();
      coal =
        {
          c_mu = Mutex.create ();
          c_nonempty = Condition.create ();
          c_done = Condition.create ();
          c_not_full = Condition.create ();
          c_queue = Queue.create ();
          c_max_batch = max max_batch 1;
          c_max_queue = max max_queue 1;
          c_stop = false;
        };
      disp_conn = None;
      sub_mu = Mutex.create ();
      sub_conn = None;
      caches = (Mutex.create (), ref []);
      on_push = (Mutex.create (), ref []);
      stop_flag = Atomic.make false;
      threads = [];
    }
  in
  (* initial replica sync before any verdict can fall back to it; a
     server that is still coming up is tolerated (the subscriber's later
     sync catches the replica up) *)
  (try ignore (sync t : (int, string) result) with _ -> ());
  let threads = [ Thread.create dispatcher_loop t ] in
  let threads =
    if subscribe then Thread.create subscriber_loop t :: threads else threads
  in
  let threads =
    match push_interval_s with
    | Some iv when iv > 0.0 ->
      Thread.create (fun () -> pusher_loop t iv) () :: threads
    | _ -> threads
  in
  t.threads <- threads;
  t

let close t =
  Atomic.set t.stop_flag true;
  (* interrupt a long poll in flight *)
  Mutex.lock t.sub_mu;
  (match t.sub_conn with Some c -> Http.Conn.shutdown c | None -> ());
  Mutex.unlock t.sub_mu;
  let c = t.coal in
  Mutex.lock c.c_mu;
  c.c_stop <- true;
  Condition.broadcast c.c_nonempty;
  Condition.broadcast c.c_done;
  Condition.broadcast c.c_not_full;
  Mutex.unlock c.c_mu;
  List.iter Thread.join t.threads;
  t.threads <- [];
  drop_dispatcher_conn t;
  (* final push so a short-lived client's totals reach the fleet view;
     the pusher thread is already joined, so [pushed_seq] is ours *)
  match t.push_interval_s with
  | Some _ -> ( try ignore (push t : (int, string) result) with _ -> ())
  | None -> ()

(* ---- the remote analyzer and engine configuration ---- *)

let analyzer ?params t : Engine.analyzer =
  let fallback = Jitbull.analyzer ?params ?obs:t.obs t.replica in
 fun ~ctx ~func_index ~name ~trace ->
  (* every pass, not the replica's posted ones: the server's DB may post
     passes this replica has not synced yet *)
  let dna = Dna.extract trace in
  let req =
    {
      Proto.vr_id = 0;
      vr_func = name;
      vr_bytecode_hash = ctx.Engine.cc_bytecode_hash;
      vr_feedback_hash = ctx.Engine.cc_feedback_hash;
      vr_dna = Sexpr.to_string (Dna.to_sexpr dna);
    }
  in
  match
    (* the span whose id rides the wire as the batch's remote parent:
       [submit] captures it as [p_parent] before parking the request *)
    Obs.span t.obs
      ~fields:[ ("func", Jsonx.String name) ]
      "remote_verdict"
      (fun () -> submit t req)
  with
  | Ok resp ->
    Obs.incr t.obs "engine.remote_verdicts";
    Proto.decision_of_verdict resp.Proto.vs_verdict
  | Error _ ->
    (* server unreachable or timed out: decide locally against the
       replica — possibly stale, but never unprotected *)
    Obs.incr t.obs "engine.remote_fallbacks";
    fallback ~ctx ~func_index ~name ~trace

let engine_config ?params t ~vulns () =
  let cache =
    Engine.Policy_cache.create ~generation:(fun () -> Atomic.get t.gen) ()
  in
  register_cache t cache;
  {
    Engine.default_config with
    Engine.vulns;
    analyzer = Some (analyzer ?params t);
    obs = t.obs;
    policy_cache = Some cache;
  }
