(* Thread-safety: counters are atomics (server domains bump them while
   the VM dispatch loop bumps them on the main thread); gauges are single-word stores, benign to race; histograms take
   a per-histogram mutex around the multi-field update; the registry
   itself takes one mutex around get-or-create and snapshot. *)

type counter = {
  c_name : string;
  c_value : int Atomic.t;
}

type gauge = {
  g_name : string;
  mutable g_value : float;
}

type histogram = {
  h_name : string;
  h_mu : Mutex.t;
  bounds : float array;  (* strictly increasing upper bounds *)
  buckets : int array;  (* length = Array.length bounds + 1 (+∞ bucket) *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type t = {
  mu : Mutex.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let locked mu f =
  Mutex.lock mu;
  match f () with
  | v ->
    Mutex.unlock mu;
    v
  | exception e ->
    Mutex.unlock mu;
    raise e

let create () =
  {
    mu = Mutex.create ();
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 32;
  }

let counter t name =
  locked t.mu (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> c
      | None ->
        let c = { c_name = name; c_value = Atomic.make 0 } in
        Hashtbl.replace t.counters name c;
        c)

let incr c = Atomic.incr c.c_value
let add c n = ignore (Atomic.fetch_and_add c.c_value n)
let counter_value c = Atomic.get c.c_value

let gauge t name =
  locked t.mu (fun () ->
      match Hashtbl.find_opt t.gauges name with
      | Some g -> g
      | None ->
        let g = { g_name = name; g_value = 0.0 } in
        Hashtbl.replace t.gauges name g;
        g)

let set g v = g.g_value <- v
let gauge_value g = g.g_value

let default_latency_bounds =
  [|
    1e-6; 2e-6; 5e-6; 1e-5; 2e-5; 5e-5; 1e-4; 2e-4; 5e-4; 1e-3; 2e-3; 5e-3; 1e-2; 2e-2;
    5e-2; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0;
  |]

(* IR-size deltas and other small-count distributions: 0 gets its own
   bucket (most pass runs change nothing), then a 1-2-5 grid to 5000. *)
let size_bounds =
  [| 0.0; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0; 2000.0; 5000.0 |]

let histogram ?(bounds = default_latency_bounds) t name =
  locked t.mu (fun () ->
      match Hashtbl.find_opt t.histograms name with
      | Some h -> h
      | None ->
        let k = Array.length bounds in
        for i = 1 to k - 1 do
          if bounds.(i) <= bounds.(i - 1) then
            invalid_arg (Printf.sprintf "Metrics.histogram %s: bounds not increasing" name)
        done;
        let h =
          {
            h_name = name;
            h_mu = Mutex.create ();
            bounds;
            buckets = Array.make (k + 1) 0;
            h_count = 0;
            h_sum = 0.0;
            h_min = infinity;
            h_max = neg_infinity;
          }
        in
        Hashtbl.replace t.histograms name h;
        h)

let bucket_index bounds v =
  (* first bucket whose upper bound is >= v; binary search over the fixed
     array keeps [observe] O(log #buckets) with a tiny constant *)
  let k = Array.length bounds in
  if k = 0 || v > bounds.(k - 1) then k
  else begin
    let lo = ref 0 and hi = ref (k - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

let observe h v =
  let i = bucket_index h.bounds v in
  locked h.h_mu (fun () ->
      h.buckets.(i) <- h.buckets.(i) + 1;
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v)

let quantile_unlocked h q =
  if h.h_count = 0 then 0.0
  else begin
    let rank = q *. float_of_int h.h_count in
    let k = Array.length h.bounds in
    let result = ref h.h_max in
    let cum = ref 0 in
    let lower = ref 0.0 in
    (try
       for i = 0 to k do
         let upper = if i < k then h.bounds.(i) else h.h_max in
         let c = h.buckets.(i) in
         if c > 0 && float_of_int (!cum + c) >= rank then begin
           let frac = (rank -. float_of_int !cum) /. float_of_int c in
           result := !lower +. (frac *. (upper -. !lower));
           raise Exit
         end;
         cum := !cum + c;
         lower := upper
       done
     with Exit -> ());
    Float.min h.h_max (Float.max h.h_min !result)
  end

let quantile h q = locked h.h_mu (fun () -> quantile_unlocked h q)

(* ---- snapshots ---- *)

type histogram_view = {
  hv_name : string;
  hv_count : int;
  hv_sum : float;
  hv_min : float;
  hv_max : float;
  hv_buckets : (float * int) list;
  hv_p50 : float;
  hv_p90 : float;
  hv_p99 : float;
}

type view = {
  v_counters : (string * int) list;
  v_gauges : (string * float) list;
  v_histograms : histogram_view list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot t =
  locked t.mu (fun () ->
      let counters =
        Hashtbl.fold (fun name c acc -> (name, Atomic.get c.c_value) :: acc) t.counters []
        |> List.sort by_name
      in
      let gauges =
        Hashtbl.fold (fun name g acc -> (name, g.g_value) :: acc) t.gauges []
        |> List.sort by_name
      in
      let histograms =
        Hashtbl.fold
          (fun name h acc ->
            locked h.h_mu (fun () ->
                let k = Array.length h.bounds in
                let buckets =
                  List.init (k + 1) (fun i ->
                      ((if i < k then h.bounds.(i) else infinity), h.buckets.(i)))
                in
                {
                  hv_name = name;
                  hv_count = h.h_count;
                  hv_sum = h.h_sum;
                  hv_min = (if h.h_count = 0 then 0.0 else h.h_min);
                  hv_max = (if h.h_count = 0 then 0.0 else h.h_max);
                  hv_buckets = buckets;
                  hv_p50 = quantile_unlocked h 0.5;
                  hv_p90 = quantile_unlocked h 0.9;
                  hv_p99 = quantile_unlocked h 0.99;
                })
            :: acc)
          t.histograms []
        |> List.sort (fun a b -> String.compare a.hv_name b.hv_name)
      in
      { v_counters = counters; v_gauges = gauges; v_histograms = histograms })

let find_counter view name = List.assoc_opt name view.v_counters

let find_histogram view name =
  List.find_opt (fun hv -> String.equal hv.hv_name name) view.v_histograms

(* ---- rendering ---- *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    name

(* Label values keep their text verbatim; the exposition format escapes
   backslash, double quote and newline (in that order of care: escaping
   the backslash first keeps the mapping injective). *)
let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_prometheus view =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let name = sanitize name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" name name v))
    view.v_counters;
  List.iter
    (fun (name, v) ->
      let name = sanitize name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %g\n" name name v))
    view.v_gauges;
  List.iter
    (fun hv ->
      let name = sanitize hv.hv_name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
      let cum = ref 0 in
      List.iter
        (fun (le, c) ->
          cum := !cum + c;
          let le_s = if Float.is_finite le then Printf.sprintf "%g" le else "+Inf" in
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name le_s !cum))
        hv.hv_buckets;
      Buffer.add_string buf (Printf.sprintf "%s_sum %.9g\n" name hv.hv_sum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name hv.hv_count))
    view.v_histograms;
  Buffer.contents buf

let view_to_json view =
  let histogram_json hv =
    Jsonx.Assoc
      [
        ("count", Jsonx.Int hv.hv_count);
        ("sum", Jsonx.Float hv.hv_sum);
        ("min", Jsonx.Float hv.hv_min);
        ("max", Jsonx.Float hv.hv_max);
        ("p50", Jsonx.Float hv.hv_p50);
        ("p90", Jsonx.Float hv.hv_p90);
        ("p99", Jsonx.Float hv.hv_p99);
        ( "buckets",
          Jsonx.List
            (List.map
               (fun (le, c) ->
                 Jsonx.Assoc
                   [
                     ("le", if Float.is_finite le then Jsonx.Float le else Jsonx.String "+Inf");
                     ("count", Jsonx.Int c);
                   ])
               hv.hv_buckets) );
      ]
  in
  Jsonx.Assoc
    [
      ("counters", Jsonx.Assoc (List.map (fun (k, v) -> (k, Jsonx.Int v)) view.v_counters));
      ("gauges", Jsonx.Assoc (List.map (fun (k, v) -> (k, Jsonx.Float v)) view.v_gauges));
      ( "histograms",
        Jsonx.Assoc (List.map (fun hv -> (hv.hv_name, histogram_json hv)) view.v_histograms)
      );
    ]
