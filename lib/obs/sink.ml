type t = {
  path : string;
  what : string;
  max_bytes : int option;
  mutable chan : out_channel option;  (* None once closed or detached *)
  mutable bytes : int;  (* written to the current file *)
  mutable rotations : int;
}

let create ?max_bytes ~what path =
  { path; what; max_bytes; chan = Some (open_out path); bytes = 0; rotations = 0 }

let rotations t = t.rotations

let close t =
  Option.iter close_out_noerr t.chan;
  t.chan <- None

(* Checked after each write, so one oversized line still lands whole. *)
let rotate t =
  close t;
  (try Sys.rename t.path (t.path ^ ".1") with Sys_error _ -> ());
  t.chan <- Some (open_out t.path);
  t.bytes <- 0;
  t.rotations <- t.rotations + 1

let write t line =
  match t.chan with
  | None -> ()
  | Some oc -> (
    try
      output_string oc line;
      output_char oc '\n';
      flush oc;
      t.bytes <- t.bytes + String.length line + 1;
      match t.max_bytes with Some cap when t.bytes >= cap -> rotate t | _ -> ()
    with Sys_error msg ->
      close t;
      Logs.warn (fun m ->
          m "%s sink %s: %s; sink closed, the in-memory ring keeps recording"
            t.what t.path msg))
