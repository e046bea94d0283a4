(* A dependency-free HTTP layer ([Unix] sockets only), in two parts:

   - a reusable server core ({!Server}) and client connection
     ({!Conn}) speaking enough HTTP/1.1 for our own endpoints:
     Content-Length framing, keep-alive connection reuse, a bounded
     header block, N accept/serve worker domains sharing one listening
     socket. Clients (jitbulld's engine fleet) issue many requests per
     connection without paying connect cost per round-trip.

   - the live observability exporter built on it: one worker domain on
     127.0.0.1 serving /metrics, /healthz, /audit and /explain from
     immutable snapshots ([Metrics.snapshot], the audit ring under its
     own mutex), so serving never blocks the engine beyond those locks.

   Deliberately not a web server: no TLS, no chunked encoding, no
   virtual hosts — good enough for a Prometheus scraper, the jitbulld
   verdict fleet, and a curl during an incident. *)

(* /healthz fails once the engine's cumulative main-thread compile stall
   passes this many seconds. *)
let max_stall_seconds = 1.0

(* ---- request / response types ---- *)

type request = {
  rq_meth : string;
  rq_path : string;
  rq_query : (string * string) list;
  rq_headers : (string * string) list;  (* lowercased names *)
  rq_body : string;
}

type response = {
  rs_status : int;
  rs_content_type : string;
  rs_body : string;
}

let respond ?(status = 200) ?(content_type = "text/plain") body =
  { rs_status = status; rs_content_type = content_type; rs_body = body }

let reason_of_status = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Error"

(* ---- low-level IO: bounded buffered reads, full writes ---- *)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* A buffered reader over one socket. Unconsumed bytes live at
   [rd_off .. rd_off + rd_len) of [rd_buf]; on a keep-alive connection
   the leftover past one message belongs to the next. The buffer grows
   geometrically and refills append in place, so reading an N-byte
   message costs O(N) total — not O(N^2/chunk) as a string-concat
   accumulator would. *)
type reader = {
  rd_fd : Unix.file_descr;
  mutable rd_buf : Bytes.t;
  mutable rd_off : int;
  mutable rd_len : int;
}

let reader fd = { rd_fd = fd; rd_buf = Bytes.create 65536; rd_off = 0; rd_len = 0 }

exception Closed

(* Read one chunk from the socket into the buffer's tail, compacting or
   growing first when full; raises [Closed] on EOF. *)
let refill r =
  if r.rd_off + r.rd_len = Bytes.length r.rd_buf then
    if r.rd_off > 0 then begin
      Bytes.blit r.rd_buf r.rd_off r.rd_buf 0 r.rd_len;
      r.rd_off <- 0
    end
    else begin
      let bigger = Bytes.create (2 * Bytes.length r.rd_buf) in
      Bytes.blit r.rd_buf 0 bigger 0 r.rd_len;
      r.rd_buf <- bigger
    end;
  let pos = r.rd_off + r.rd_len in
  let room = Bytes.length r.rd_buf - pos in
  let rec go () =
    match Unix.read r.rd_fd r.rd_buf pos room with
    | 0 -> raise Closed
    | n -> r.rd_len <- r.rd_len + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Index just past the header terminator (relative to [rd_off]), and the
   terminator's width. Resumable: [from] is where to start scanning, so
   a retry after a refill re-examines only the (possibly split) tail
   instead of the whole buffer. *)
let find_headers_end r ~from =
  let buf = r.rd_buf and base = r.rd_off and len = r.rd_len in
  let rec go i =
    if i >= len then None
    else
      let c = Bytes.unsafe_get buf (base + i) in
      if
        c = '\r' && i + 3 < len
        && Bytes.unsafe_get buf (base + i + 1) = '\n'
        && Bytes.unsafe_get buf (base + i + 2) = '\r'
        && Bytes.unsafe_get buf (base + i + 3) = '\n'
      then Some (i, 4)
      else if c = '\n' && i + 1 < len && Bytes.unsafe_get buf (base + i + 1) = '\n'
      then Some (i, 2)
      else go (i + 1)
  in
  go from

let parse_headers block =
  String.split_on_char '\n' block
  |> List.filter_map (fun line ->
         match String.index_opt line ':' with
         | Some i ->
           Some
             ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
               String.trim (String.sub line (i + 1) (String.length line - i - 1))
             )
         | None -> None)

(* Read one HTTP message (request or response): the first line, the
   header alist and a Content-Length-framed body. Returns [None] on a
   clean EOF before any byte of a new message (the keep-alive peer went
   away); raises [Closed] mid-message. Bounded: the header block may not
   exceed 64 KiB, the body [max_body]. *)
let read_message ?(max_body = 16 * 1024 * 1024) r =
  let rec wait_headers ~from =
    match find_headers_end r ~from with
    | Some x -> x
    | None ->
      if r.rd_len > 65536 then failwith "header block too large";
      (* The terminator may straddle the refill boundary: back up by its
         width minus one before rescanning. *)
      let from = max 0 (r.rd_len - 3) in
      refill r;
      wait_headers ~from
  in
  match
    if r.rd_len = 0 then refill r
  with
  | exception Closed -> None
  | () ->
    let hdr_end, sep = wait_headers ~from:0 in
    let head = Bytes.sub_string r.rd_buf r.rd_off hdr_end in
    let first_line, header_block =
      match String.index_opt head '\n' with
      | Some i ->
        ( String.trim (String.sub head 0 i),
          String.sub head (i + 1) (String.length head - i - 1) )
      | None -> (String.trim head, "")
    in
    let headers = parse_headers header_block in
    let body_len =
      match List.assoc_opt "content-length" headers with
      | Some s -> ( match int_of_string_opt (String.trim s) with
        | Some n when n >= 0 && n <= max_body -> n
        | _ -> failwith "bad content-length")
      | None -> 0
    in
    let body_start = hdr_end + sep in
    while r.rd_len < body_start + body_len do
      refill r
    done;
    let body = Bytes.sub_string r.rd_buf (r.rd_off + body_start) body_len in
    r.rd_off <- r.rd_off + body_start + body_len;
    r.rd_len <- r.rd_len - (body_start + body_len);
    if r.rd_len = 0 then begin
      r.rd_off <- 0;
      (* Don't let one oversized message pin a huge buffer forever. *)
      if Bytes.length r.rd_buf > 1 lsl 20 then r.rd_buf <- Bytes.create 65536
    end;
    Some (first_line, headers, body)

(* ---- request-line parsing ---- *)

let parse_query qs =
  String.split_on_char '&' qs
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i ->
           Some
             ( String.sub kv 0 i,
               String.sub kv (i + 1) (String.length kv - i - 1) )
         | None -> if kv = "" then None else Some (kv, ""))

let split_target target =
  match String.index_opt target '?' with
  | Some i ->
    ( String.sub target 0 i,
      parse_query (String.sub target (i + 1) (String.length target - i - 1)) )
  | None -> (target, [])

(* ---- the server core ---- *)

module Server = struct
  type t = {
    listen_fd : Unix.file_descr;
    s_port : int;
    stop_flag : bool Atomic.t;
    doms : unit Domain.t list;
    conns : int Atomic.t;
    reqs : int Atomic.t;
    live_mu : Mutex.t;
    live : (Unix.file_descr, unit) Hashtbl.t;
        (** connections still being served; [stop] shuts them down *)
  }

  let render_response ~keep_alive (rs : response) =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: %s\r\n\r\n%s"
      rs.rs_status (reason_of_status rs.rs_status) rs.rs_content_type
      (String.length rs.rs_body)
      (if keep_alive then "keep-alive" else "close")
      rs.rs_body

  (* keep-alive requests served on one connection (a runaway-client
     bound; the final response carries [Connection: close]) *)
  let max_requests = 10_000

  (* One connection: serve requests until the client closes, asks to
     close, errors, or exhausts [max_requests]. *)
  let serve_conn t ~handler client =
    let r = reader client in
    let served = ref 0 in
    let continue = ref true in
    while !continue && not (Atomic.get t.stop_flag) do
      match read_message r with
      | None -> continue := false
      | Some (line, headers, body) ->
        let meth, target, version =
          match String.split_on_char ' ' line with
          | m :: tgt :: v :: _ -> (m, tgt, v)
          | m :: tgt :: _ -> (m, tgt, "HTTP/1.0")
          | _ -> ("GET", "/", "HTTP/1.0")
        in
        let path, query = split_target target in
        let req =
          { rq_meth = meth; rq_path = path; rq_query = query;
            rq_headers = headers; rq_body = body }
        in
        incr served;
        Atomic.incr t.reqs;
        let conn_hdr =
          Option.map String.lowercase_ascii (List.assoc_opt "connection" headers)
        in
        let keep_alive =
          !served < max_requests
          &&
          match (version, conn_hdr) with
          | _, Some "close" -> false
          | "HTTP/1.0", Some "keep-alive" -> true
          | "HTTP/1.0", _ -> false
          | _, _ -> true
        in
        let resp =
          try handler req
          with e ->
            respond ~status:500 ~content_type:"text/plain"
              ("internal error: " ^ Printexc.to_string e ^ "\n")
        in
        write_all client (render_response ~keep_alive resp);
        if not keep_alive then continue := false
      | exception _ -> continue := false
    done

  (* Each worker domain accepts and hands every connection to its own
     systhread, so the number of simultaneously served keep-alive
     connections is not bounded by the worker count — a fleet of clients
     holds one persistent connection each, and a long-poll subscriber
     parks its thread without starving anyone. Threads within a domain
     interleave on blocking I/O; CPU-bound handler work spreads across
     domains by whichever wins the next accept. A domain cannot be
     joined while one of its threads runs, so [stop] shuts down the read
     side of every live connection: a thread waiting for the next
     request reads EOF and exits. A connection is registered and
     unregistered under [live_mu], and closed only after unregistering,
     so [stop] never shuts down a descriptor number that was reused. *)
  let worker_loop t ~handler =
    while not (Atomic.get t.stop_flag) do
      match Unix.accept t.listen_fd with
      | client, _ ->
        (* One write per HTTP message on both sides, so Nagle only adds
           latency (delayed-ACK stalls on small keep-alive round-trips). *)
        (try Unix.setsockopt client Unix.TCP_NODELAY true with _ -> ());
        Atomic.incr t.conns;
        Mutex.lock t.live_mu;
        Hashtbl.replace t.live client ();
        Mutex.unlock t.live_mu;
        ignore
          (Thread.create
             (fun () ->
               (* a connection accepted after [stop]'s sweep sees the flag
                  before its first read *)
               (try serve_conn t ~handler client with _ -> ());
               Mutex.lock t.live_mu;
               Hashtbl.remove t.live client;
               Mutex.unlock t.live_mu;
               try Unix.close client with _ -> ())
             ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception _ ->
        (* listening socket closed by [stop] (or a transient accept error
           racing it): re-check the flag *)
        if not (Atomic.get t.stop_flag) then Unix.sleepf 0.01
    done

  let start ?(workers = 1) ~handler ~port () =
    let workers = max 1 workers in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       Unix.listen fd 128
     with e ->
       (try Unix.close fd with _ -> ());
       raise e);
    let port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    let t =
      {
        listen_fd = fd;
        s_port = port;
        stop_flag = Atomic.make false;
        doms = [];
        conns = Atomic.make 0;
        reqs = Atomic.make 0;
        live_mu = Mutex.create ();
        live = Hashtbl.create 16;
      }
    in
    let doms = List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t ~handler)) in
    { t with doms }

  let port t = t.s_port
  let connections t = Atomic.get t.conns
  let requests t = Atomic.get t.reqs

  let stop t =
    if not (Atomic.get t.stop_flag) then begin
      Atomic.set t.stop_flag true;
      (* closing the listening socket unblocks every accept *)
      (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with _ -> ());
      (try Unix.close t.listen_fd with _ -> ());
      (* end every connection's wait for its next request; the write
         side stays open, so a handler still running (a long poll that
         saw the stop) can answer before its thread exits *)
      Mutex.lock t.live_mu;
      Hashtbl.iter
        (fun fd () -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
        t.live;
      Mutex.unlock t.live_mu;
      List.iter Domain.join t.doms
    end
end

(* ---- persistent client connection ---- *)

module Conn = struct
  type t = {
    fd : Unix.file_descr;
    rd : reader;
    host : string;
  }

  let set_timeout fd = function
    | None -> ()
    | Some s ->
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
       with _ -> ())

  let connect ?(host = "127.0.0.1") ?timeout_s ~port () =
    let addr =
      if String.equal host "127.0.0.1" || String.equal host "localhost" then
        Unix.inet_addr_loopback
      else Unix.inet_addr_of_string host
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       set_timeout fd timeout_s;
       (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
       Unix.connect fd (Unix.ADDR_INET (addr, port))
     with e ->
       (try Unix.close fd with _ -> ());
       raise e);
    { fd; rd = reader fd; host }

  let close t = try Unix.close t.fd with _ -> ()

  (* Unblock a request in flight on another thread: shutdown makes its
     blocked read return EOF without racing the fd number the way a
     concurrent close would. *)
  let shutdown t = try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with _ -> ()

  let parse_status_line line =
    match String.split_on_char ' ' line with
    | _http :: code :: _ -> ( try int_of_string code with _ -> 0)
    | _ -> 0

  (* One request/response round-trip on the persistent connection.
     [timeout_s] overrides the socket receive timeout for this request
     (long-poll subscribes pass a large one). Raises [Closed] when the
     server hung up, [Unix_error (EAGAIN, …)] on timeout. *)
  let request t ?(meth = "GET") ?(headers = []) ?(body = "")
      ?(keep_alive = true) ?timeout_s path =
    set_timeout t.fd timeout_s;
    let extra =
      String.concat ""
        (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
    in
    write_all t.fd
      (Printf.sprintf
         "%s %s HTTP/1.1\r\nHost: %s\r\nConnection: %s\r\n%sContent-Length: %d\r\n\r\n%s"
         meth path t.host
         (if keep_alive then "keep-alive" else "close")
         extra (String.length body) body);
    match read_message t.rd with
    | None -> raise Closed
    | Some (line, headers, rbody) -> (parse_status_line line, headers, rbody)
end

(* ---- observability route handlers ---- *)

(* Reproduction version, stamped into jitbull_build_info so fleet
   dashboards can tell engine generations apart (dune-project carries no
   version field; bump alongside notable PRs). *)
let version = "0.9.0"

(* Wall-clock stamp taken at module initialization — close enough to
   exec for process_start_time_seconds' purpose (uptime and restart
   detection on fleet dashboards). *)
let process_start = Unix.gettimeofday ()

let build_info_body () =
  let esc = Metrics.escape_label_value in
  Printf.sprintf
    "# HELP jitbull_build_info Build metadata as labels; value is always 1.\n\
     # TYPE jitbull_build_info gauge\n\
     jitbull_build_info{version=\"%s\",ocaml=\"%s\"} 1\n\
     # HELP process_start_time_seconds Unix time the process started.\n\
     # TYPE process_start_time_seconds gauge\n\
     process_start_time_seconds %.6f\n"
    (esc version) (esc Sys.ocaml_version) process_start

let metrics_body obs =
  build_info_body ()
  ^ Metrics.render_prometheus (Obs.view (Some obs))
  ^ Audit.render_prometheus (Obs.audit obs)

(* One check, kept in the [checks] list the report has always carried. *)
let health_body obs =
  let stall =
    List.assoc_opt "engine.main_stall_seconds" (Obs.view (Some obs)).Metrics.v_gauges
    |> Option.value ~default:0.0
  in
  let ok = stall <= max_stall_seconds in
  let json =
    Jsonx.Assoc
      [
        ("status", Jsonx.String (if ok then "ok" else "fail"));
        ( "checks",
          Jsonx.List
            [
              Jsonx.Assoc
                [
                  ("name", Jsonx.String "main_stall_seconds");
                  ("value", Jsonx.Float stall);
                  ("threshold", Jsonx.Float max_stall_seconds);
                  ("ok", Jsonx.Bool ok);
                ];
            ] );
      ]
  in
  ((if ok then 200 else 503), Jsonx.to_string json)

let bad_request msg =
  respond ~status:400 ~content_type:"application/json"
    (Jsonx.to_string (Jsonx.Assoc [ ("error", Jsonx.String msg) ]))

(* The uniform 404: JSON body + application/json, shared by the
   exporter fallback and jitbulld's own fallback so every
   miss looks the same to fleet tooling. *)
let not_found () =
  respond ~status:404 ~content_type:"application/json"
    (Jsonx.to_string (Jsonx.Assoc [ ("error", Jsonx.String "not found") ]))

(* Query-parameter counts are strict: a negative, non-numeric or huge
   value is a client error (400), never silently defaulted. *)
let parse_count ?(max_value = 10_000) name query ~default =
  match List.assoc_opt name query with
  | None -> Ok default
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | None -> Error (Printf.sprintf "%s: not an integer" name)
    | Some n when n < 0 -> Error (Printf.sprintf "%s: must be non-negative" name)
    | Some n when n > max_value ->
      Error (Printf.sprintf "%s: too large (max %d)" name max_value)
    | Some n -> Ok n)

let audit_response obs query =
  match parse_count "n" query ~default:32 with
  | Error msg -> bad_request msg
  | Ok n ->
    let records = Audit.last (Obs.audit obs) n in
    respond ~content_type:"application/json"
      (Jsonx.to_string (Jsonx.List (List.map Audit.record_to_json records)))

let explain_response ~can_disable obs query =
  let au = Obs.audit obs in
  match List.assoc_opt "id" query with
  | None ->
    (* recent-decisions index *)
    (match parse_count "n" query ~default:32 with
    | Error msg -> bad_request msg
    | Ok n ->
      respond ~content_type:"text/html; charset=utf-8"
        (Explain.index_html ~limit:n (Audit.records au)))
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | None -> bad_request "id: not an integer"
    | Some id ->
      let records = Audit.records au in
      (match List.find_opt (fun (r : Audit.record) -> r.Audit.seq = id) records with
      | None ->
        respond ~status:404 ~content_type:"application/json"
          (Jsonx.to_string
             (Jsonx.Assoc
                [
                  ( "error",
                    Jsonx.String
                      "no such decision: never made, or evicted from the audit \
                       ring" );
                ]))
      | Some r ->
        let e = Explain.resolve ~history:records r in
        (match List.assoc_opt "format" query with
        | Some "text" ->
          respond ~content_type:"text/plain; charset=utf-8"
            (Explain.to_text ?can_disable e)
        | _ ->
          respond ~content_type:"text/html; charset=utf-8"
            (Explain.to_html ?can_disable e))))

(* The observability routes, shared between the standalone exporter and
   jitbulld's service (which mounts them behind its own). [None] =
   not an obs route. *)
let obs_routes ?can_disable ~obs req =
  match req.rq_path with
  | "/metrics" ->
    Some (respond ~content_type:"text/plain; version=0.0.4" (metrics_body obs))
  | "/healthz" ->
    let status, body = health_body obs in
    Some (respond ~status ~content_type:"application/json" body)
  | "/audit" -> Some (audit_response obs req.rq_query)
  | "/explain" -> Some (explain_response ~can_disable obs req.rq_query)
  | "/profile" ->
    (* collapsed-stack samples from the process-global profiler; empty
       (but 200) when profiling was never started *)
    Some (respond ~content_type:"text/plain; charset=utf-8" (Profile.collapsed ()))
  | _ -> None

(* ---- the standalone exporter (jsrun --serve-metrics) ---- *)

type t = Server.t

let start ?can_disable ~obs ~port () =
  Server.start ~workers:1
    ~handler:(fun req ->
      match obs_routes ?can_disable ~obs req with
      | Some resp -> resp
      | None -> not_found ())
    ~port ()

let port = Server.port
let stop = Server.stop
let connections = Server.connections
let requests = Server.requests

(* ---- loopback client (tests, bench, CI smoke) ---- *)

let fetch_full ~port path =
  let c = Conn.connect ~port () in
  Fun.protect
    ~finally:(fun () -> Conn.close c)
    (fun () -> Conn.request c ~keep_alive:false path)

let fetch ~port path =
  let status, _headers, body = fetch_full ~port path in
  (status, body)
