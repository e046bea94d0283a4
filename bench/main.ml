(* JITBULL benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §5 for the experiment index and
   EXPERIMENTS.md for paper-vs-measured results). Per-layer cost lives
   in perfbench/; each section here owns one claim perfbench does not.

   Usage:
     bench/main.exe                    run everything
     bench/main.exe SECTION            run one section
     bench/main.exe ... --json OUT     also dump machine-readable results
     bench/main.exe table1       vulnerability survey (Table I)
     bench/main.exe table2       machine configuration (Table II)
     bench/main.exe window       vulnerability-window statistics (§III-C)
     bench/main.exe security     detection matrix (§VI-B, 8 CVEs × 4 variants)
     bench/main.exe fig4         false-positive rates (#1 vs #4 VDCs)
     bench/main.exe fig5         execution times (NoJIT / JIT / JITBULL #0 #1 #4)
     bench/main.exe fig6         scalability (#1..#8 VDCs)
     bench/main.exe fuzz         fuzzer-to-database pipeline (paper §IV-A)
     bench/main.exe telemetry    pass percentiles, comparator throughput,
                                 audit-trail cost, explain-capture A/B
     bench/main.exe ablation     Thr/Ratio/n-gram parameter sweep (beyond the paper)
     bench/main.exe overhead     decision cost vs DB size: indexed vs naive
     bench/main.exe native       native x86-64 Ion tier vs the LIR executor
                                 (numeric-loop corpus, byte-equal outputs)
     bench/main.exe profile      sampling profiler overhead A/B and attribution *)

let sections_in_order =
  [
    ("table1", Paper.table1);
    ("table2", Paper.table2);
    ("window", Paper.window);
    ("security", Paper.security);
    ("fig4", Paper.fig4);
    ("fig5", Paper.fig5);
    ("fig6", Paper.fig6);
    ("fuzz", Fuzz.run);
    ("telemetry", Telemetry.run);
    ("ablation", Ablation.run);
    ("overhead", Overhead.run);
    ("native", Native.run);
    ("profile", Native.profile);
  ]

let () =
  let rec split cmds json = function
    | "--json" :: path :: rest -> split cmds (Some path) rest
    | "--json" :: [] ->
      Printf.eprintf "--json requires an output path\n";
      exit 1
    | a :: rest -> split (a :: cmds) json rest
    | [] -> (List.rev cmds, json)
  in
  let cmds, json_path = split [] None (List.tl (Array.to_list Sys.argv)) in
  let command = match cmds with [] -> "all" | [ c ] -> c | _ ->
    Printf.eprintf "usage: bench/main.exe [SECTION] [--json OUT]\n";
    exit 1
  in
  let chosen =
    if String.equal command "all" then sections_in_order
    else
      match List.assoc_opt command sections_in_order with
      | Some f -> [ (command, f) ]
      | None ->
        Printf.eprintf "unknown command %s (known: %s)\n" command
          (String.concat ", " ("all" :: List.map fst sections_in_order));
        exit 1
  in
  let timings =
    List.map
      (fun (name, f) ->
        let (), dt = Harness.time f in
        (name, dt))
      chosen
  in
  match json_path with
  | Some path -> Harness.write_json path command timings
  | None -> ()
