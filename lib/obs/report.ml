let prefix = "pass."
let suffix = ".seconds"

let pass_of_histogram name =
  let lp = String.length prefix and ls = String.length suffix in
  let n = String.length name in
  if n > lp + ls
     && String.equal (String.sub name 0 lp) prefix
     && String.equal (String.sub name (n - ls) ls) suffix
  then Some (String.sub name lp (n - lp - ls))
  else None

let us v = Printf.sprintf "%.1f" (v *. 1e6)

let pass_profile (view : Metrics.view) =
  let headers = [ "pass"; "runs"; "total ms"; "mean us"; "p50 us"; "p90 us"; "delta size" ] in
  let entries =
    List.filter_map
      (fun (hv : Metrics.histogram_view) ->
        match pass_of_histogram hv.Metrics.hv_name with
        | Some pass -> Some (pass, hv)
        | None -> None)
      view.Metrics.v_histograms
    |> List.sort (fun (_, a) (_, b) ->
           compare b.Metrics.hv_sum a.Metrics.hv_sum)
  in
  let rows =
    List.map
      (fun (pass, (hv : Metrics.histogram_view)) ->
        let delta =
          match Metrics.find_counter view (prefix ^ pass ^ ".delta_size") with
          | Some d -> Printf.sprintf "%+d" d
          | None -> ""
        in
        let mean = if hv.hv_count = 0 then 0.0 else hv.hv_sum /. float_of_int hv.hv_count in
        [
          pass;
          string_of_int hv.hv_count;
          Printf.sprintf "%.2f" (hv.hv_sum *. 1000.0);
          us mean;
          us hv.hv_p50;
          us hv.hv_p90;
          delta;
        ])
      entries
  in
  (headers, rows)
