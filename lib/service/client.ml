module Http = Jitbull_obs.Http_export
module Obs = Jitbull_obs.Obs
module Metrics = Jitbull_obs.Metrics
module Audit = Jitbull_obs.Audit
module Fleet = Jitbull_obs.Fleet
module Jsonx = Jitbull_obs.Jsonx
module Sexpr = Jitbull_util.Sexpr
module Engine = Jitbull_jit.Engine
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull

type t = {
  port : int;
  timeout_s : float;
  obs : Obs.t option;
  client_id : string;  (** fleet label ([x-jitbull-client] header) *)
  push_interval_s : float option;  (** telemetry push cadence, if any *)
  mutable pushed_seq : int;  (** audit seq already pushed (delta cursor) *)
  replica : Db.t;  (** the engine decides on this, synced via [/delta] *)
  synced : int Atomic.t;  (** server generation [replica] reflects *)
  replica_mu : Mutex.t;  (** serializes replica syncs *)
  sub_mu : Mutex.t;
  mutable sub_conn : Http.Conn.t option;
      (** subscriber's connection; {!close} shuts it down to interrupt
          the long poll *)
  stop_flag : bool Atomic.t;
  mutable threads : Thread.t list;
}

let generation t = Atomic.get t.synced
let replica t = t.replica
let client_id t = t.client_id

(* ---- replica sync ---- *)

(* Every request this client issues — replica syncs, long polls,
   telemetry pushes — carries its fleet label, so server logs attribute
   wire traffic per client. *)
let base_headers t = [ ("x-jitbull-client", t.client_id) ]

let fetch_json conn ?headers ?timeout_s path =
  match Http.Conn.request conn ?headers ?timeout_s path with
  | 200, _, body -> Ok (Jsonx.parse body)
  | status, _, body -> Error (Printf.sprintf "HTTP %d: %s" status body)

(* Pull [/delta] against the replica's synced generation and apply it in
   one write section. The server numbers generations by its own history,
   so [synced] tracks the server generation the replica reflects; the
   replica's own generation moves with every applied payload, which is
   what invalidates verdicts the policy cache holds from before it. A
   payload that fails to decode is rejected whole. *)
let sync_replica t conn =
  Mutex.protect t.replica_mu (fun () ->
      match
        fetch_json conn ~headers:(base_headers t)
          (Printf.sprintf "/delta?gen=%d" (Atomic.get t.synced))
      with
      | Error e -> Error e
      | Ok j -> (
        match
          let entries =
            List.map
              (fun s -> Db.entry_of_sexpr (Sexpr.of_string (Jsonx.to_str s)))
              (Jsonx.to_list_exn (Jsonx.member "entries" j))
          in
          ( Jsonx.to_int (Jsonx.member "generation" j),
            match Jsonx.to_str (Jsonx.member "mode" j) with
            | "append" -> Db.Append entries
            | "resync" -> Db.Resync entries
            | m -> raise (Jsonx.Parse_error ("unknown mode " ^ m)) )
        with
        | gen, payload ->
          Db.apply t.replica payload;
          Atomic.set t.synced gen;
          Ok gen
        | exception Jsonx.Parse_error msg -> Error ("bad delta: " ^ msg)
        | exception Sexpr.Decode_error msg -> Error ("bad delta: " ^ msg)))

let with_conn t f =
  let conn = Http.Conn.connect ~timeout_s:t.timeout_s ~port:t.port () in
  Fun.protect ~finally:(fun () -> Http.Conn.close conn) (fun () -> f conn)

let sync t =
  match with_conn t (fun conn -> sync_replica t conn) with
  | r -> r
  | exception Http.Closed -> Error "connection closed"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* ---- push subscription ---- *)

let subscriber_loop t =
  let get_conn () =
    Mutex.protect t.sub_mu (fun () ->
        match t.sub_conn with
        | Some c -> c
        | None ->
          let c = Http.Conn.connect ~timeout_s:t.timeout_s ~port:t.port () in
          t.sub_conn <- Some c;
          c)
  in
  let drop_conn () =
    Mutex.protect t.sub_mu (fun () ->
        Option.iter Http.Conn.close t.sub_conn;
        t.sub_conn <- None)
  in
  (* one long poll, and a resync when the generation moved *)
  let poll () =
    let c = get_conn () in
    (* long poll well past the server's wait; the request-level timeout
       keeps a dead server from hanging us forever, and [close]
       interrupts via [Conn.shutdown] *)
    match
      fetch_json c ~headers:(base_headers t) ~timeout_s:35.0
        (Printf.sprintf "/subscribe?gen=%d&timeout_ms=30000" (Atomic.get t.synced))
    with
    | Ok j when Jsonx.to_int (Jsonx.member "generation" j) > Atomic.get t.synced ->
      Obs.incr t.obs "engine.remote_pushes";
      Result.map ignore (sync_replica t c)
    | r -> Result.map ignore r
  in
  while not (Atomic.get t.stop_flag) do
    match poll () with
    | Ok () -> ()
    | Error _ | (exception _) ->
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

let connect ?(timeout_s = 2.0) ?obs ?(subscribe = true) ?client_id ?push_interval_s ~port
    () =
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
      push_interval_s;
      pushed_seq = 0;
      replica = Db.create ();
      synced = Atomic.make 0;
      replica_mu = Mutex.create ();
      sub_mu = Mutex.create ();
      sub_conn = None;
      stop_flag = Atomic.make false;
      threads = [];
    }
  in
  (* a server that is still coming up is tolerated: the subscriber's
     later sync catches the replica up *)
  ignore (sync t : (int, string) result);
  let threads = if subscribe then [ Thread.create subscriber_loop t ] else [] in
  let threads =
    match push_interval_s with
    | Some iv when iv > 0.0 -> Thread.create (fun () -> pusher_loop t iv) () :: threads
    | _ -> threads
  in
  t.threads <- threads;
  t

let close t =
  Atomic.set t.stop_flag true;
  (* interrupt a long poll in flight *)
  Mutex.protect t.sub_mu (fun () -> Option.iter Http.Conn.shutdown t.sub_conn);
  List.iter Thread.join t.threads;
  t.threads <- [];
  (* final push so a short-lived client's totals reach the fleet view;
     the pusher thread is already joined, so [pushed_seq] is ours *)
  match t.push_interval_s with
  | Some _ -> ( try ignore (push t : (int, string) result) with _ -> ())
  | None -> ()

(* ---- the engine configuration ---- *)

(* Built even while the replica is empty: [Jitbull.config]'s empty-DB
   shortcut would leave a client that connected before the first install
   without an analyzer for good. *)
let engine_config ?params t ~vulns () =
  {
    Engine.default_config with
    Engine.vulns;
    analyzer = Some (Jitbull.analyzer ?params t.replica);
    obs = t.obs;
    policy_cache =
      Some (Engine.Policy_cache.create ~generation:(fun () -> Db.generation t.replica) ());
  }
