(* The host record printed with every run, so archived numbers carry the
   machine they were measured on (the facts bench/env_report.ml reports,
   plus whether the native tier is live). *)

let with_file path f =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ | Failure _ -> "unknown"

let cpu_model () =
  with_file "/proc/cpuinfo" (fun ic ->
      let rec find () =
        let line = input_line ic in
        match String.index_opt line ':' with
        | Some i when String.trim (String.sub line 0 i) = "model name" ->
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        | _ -> find ()
      in
      find ())

let memory () =
  with_file "/proc/meminfo" (fun ic ->
      Scanf.sscanf (input_line ic) "MemTotal: %d kB" (fun kb ->
          Printf.sprintf "%.1f GB" (float_of_int kb /. 1048576.0)))

let os () = with_file "/proc/sys/kernel/osrelease" input_line

let facts () =
  [
    ("cpu", cpu_model ());
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("memory", memory ());
    ("os", Sys.os_type ^ " " ^ os ());
    ("ocaml", Sys.ocaml_version);
    ("word_size", string_of_int Sys.word_size);
    ("native_tier", string_of_bool (Jitbull_native.Native.enabled ()));
  ]

let print () =
  List.iter (fun (k, v) -> Printf.printf "host %-12s %s\n" k v) (facts ())
