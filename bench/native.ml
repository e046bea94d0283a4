(* The native x86-64 Ion tier against the LIR executor, and the sampling
   profiler's cost on the same corpus. *)

open Harness
module Table = Jitbull_util.Text_table
module Vm = Jitbull_bytecode.Vm
module Value = Jitbull_runtime.Value

(* Numeric-loop corpus: the shapes the native backend keeps entirely in
   machine code (float arithmetic, int32 bit mixing and [%], compares,
   branches, element and length reads).
   Each script warms its [work] function past the Ion threshold; the
   measured call then runs a larger argument against installed code. *)
let native_corpus =
  [
    ( "sum_loop",
      "function work(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { s \
       = s + i; } return s; }\n\
       var w = 0;\n\
       for (var k = 0; k < 8; k = k + 1) { w = work(100); }\n\
       print(w);\n",
      300000.0 );
    ( "fib_iter",
      "function work(n) { var a = 0; var b = 1; for (var i = 0; i < n; i = \
       i + 1) { var t = a + b; a = b; b = t; } return a; }\n\
       var w = 0;\n\
       for (var k = 0; k < 8; k = k + 1) { w = work(90); }\n\
       print(w);\n",
      300000.0 );
    ( "bit_mix",
      "function work(n) { var h = 123456789; for (var i = 0; i < n; i = i \
       + 1) { h = h ^ (h << 13); h = h ^ (h >>> 17); h = h ^ (h << 5); h = \
       h & 2147483647; } return h; }\n\
       var w = 0;\n\
       for (var k = 0; k < 8; k = k + 1) { w = work(50); }\n\
       print(w);\n",
      200000.0 );
    ( "newton",
      "function work(n) { var s = 0; for (var i = 1; i < n; i = i + 1) { \
       var x = i; var g = x; g = (g + x / g) * 0.5; g = (g + x / g) * 0.5; \
       g = (g + x / g) * 0.5; s = s + g; } return s; }\n\
       var w = 0;\n\
       for (var k = 0; k < 8; k = k + 1) { w = work(50); }\n\
       print(w);\n",
      150000.0 );
    ( "poly_eval",
      "function work(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { \
       var x = i * 0.001; s = s + (((2.1 * x + 1.3) * x + 0.7) * x + 0.2); \
       } return s; }\n\
       var w = 0;\n\
       for (var k = 0; k < 8; k = k + 1) { w = work(100); }\n\
       print(w);\n",
      200000.0 );
    ( "array_sum",
      "function work(n) { var a = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, \
       9, 3]; var s = 0; for (var i = 0; i < n; i = i + 1) { s = s + a[i & \
       15] * a.length; } return s; }\n\
       var w = 0;\n\
       for (var k = 0; k < 8; k = k + 1) { w = work(100); }\n\
       print(w);\n",
      300000.0 );
    ( "mod_loop",
      "function work(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { s \
       = s + (i % 7) + (i % 13); } return s; }\n\
       var w = 0;\n\
       for (var k = 0; k < 8; k = k + 1) { w = work(100); }\n\
       print(w);\n",
      300000.0 );
  ]

let run () =
  section "Native x86-64 Ion tier vs the LIR executor";
  if not (Jitbull_native.Native.enabled ()) then begin
    Printf.printf
      "native backend unavailable here (non-x86-64 host or JITBULL_NO_NATIVE \
       set); nothing to compare.\n";
    emit "native" (Jsonx.Assoc [ ("available", Jsonx.Bool false) ])
  end
  else begin
    Printf.printf
      "Same engine configuration, same scripts; only the Ion tier's backend \
       differs.\nOutputs are asserted byte-equal and the go/no-go verdict \
       counters identical.\n\n";
    (* run the whole script (warmup + Ion compile), then locate [work] *)
    let prep ~native source =
      let config =
        {
          Engine.default_config with
          Engine.baseline_threshold = 2;
          ion_threshold = 4;
          native;
        }
      in
      let out, engine = Engine.run_source config source in
      let vm = Engine.vm engine in
      (out, engine, vm, work_index vm)
    in
    let json_rows = ref [] in
    let log_ratios = ref [] in
    let rows =
      List.map
        (fun (name, source, arg) ->
          let out_n, eng_n, vm_n, idx_n = prep ~native:true source in
          let out_e, eng_e, vm_e, idx_e = prep ~native:false source in
          if not (String.equal out_n out_e) then
            failwith (Printf.sprintf "native bench: %s outputs diverge" name);
          let sn = Engine.stats eng_n and se = Engine.stats eng_e in
          if
            (sn.Engine.nr_jit, sn.Engine.nr_disjit, sn.Engine.nr_nojit)
            <> (se.Engine.nr_jit, se.Engine.nr_disjit, se.Engine.nr_nojit)
          then failwith (Printf.sprintf "native bench: %s verdicts diverge" name);
          if sn.Engine.native_installs < 1 then
            failwith (Printf.sprintf "native bench: %s never installed native code" name);
          if Engine.tier_of eng_n idx_n <> Engine.Ion then
            failwith (Printf.sprintf "native bench: %s work not Ion-tiered" name);
          let args = [ Value.Number arg ] in
          let r_n = Vm.call_function vm_n idx_n args in
          let r_e = Vm.call_function vm_e idx_e args in
          if not (String.equal (Value.to_display r_n) (Value.to_display r_e))
          then failwith (Printf.sprintf "native bench: %s timed results diverge" name);
          let t_n = time_best (fun () -> ignore (Vm.call_function vm_n idx_n args)) in
          let t_e = time_best (fun () -> ignore (Vm.call_function vm_e idx_e args)) in
          let speedup = t_e /. Float.max 1e-9 t_n in
          log_ratios := log speedup :: !log_ratios;
          json_rows :=
            Jsonx.Assoc
              [
                ("name", Jsonx.String name);
                ("lir_executor_ms", Jsonx.Float (t_e *. 1000.0));
                ("native_ms", Jsonx.Float (t_n *. 1000.0));
                ("speedup", Jsonx.Float speedup);
              ]
            :: !json_rows;
          [
            name;
            Printf.sprintf "%.2f" (t_e *. 1000.0);
            Printf.sprintf "%.2f" (t_n *. 1000.0);
            Printf.sprintf "%.2fx" speedup;
          ])
        native_corpus
    in
    let n = List.length !log_ratios in
    let geomean =
      exp (List.fold_left ( +. ) 0.0 !log_ratios /. float_of_int (max 1 n))
    in
    Table.print
      ~headers:[ "benchmark"; "LIR executor (ms)"; "native (ms)"; "speedup" ]
      rows;
    Printf.printf "\ngeomean speedup: %.2fx (outputs byte-equal, verdicts identical)\n"
      geomean;
    emit "native"
      (Jsonx.Assoc
         [
           ("available", Jsonx.Bool true);
           ("rows", Jsonx.List (List.rev !json_rows));
           ("geomean_speedup", Jsonx.Float geomean);
           ("outputs_byte_equal", Jsonx.Bool true);
           ("verdicts_identical", Jsonx.Bool true);
         ])
  end

(* ---- sampling profiler: overhead A/B and attribution ---- *)

let profile () =
  section "Sampling profiler: overhead (off vs on) and attribution";
  let module Profile = Jitbull_obs.Profile in
  if not (Profile.available ()) then begin
    Printf.printf
      "sampler unavailable here (needs Linux/x86-64); nothing to measure.\n";
    emit "profile" (Jsonx.Assoc [ ("available", Jsonx.Bool false) ])
  end
  else begin
    Printf.printf
      "The same Ion-tiered numeric workload, measured with sampling off and\n\
       with the 997 Hz SIGPROF sampler armed: the A/B is the profiler's\n\
       whole-run cost, and the attribution split is where its ticks went.\n\n";
    let name, source, arg =
      match native_corpus with e :: _ -> e | [] -> assert false
    in
    let config =
      {
        Engine.default_config with
        Engine.baseline_threshold = 2;
        ion_threshold = 4;
      }
    in
    let _, engine = Engine.run_source config source in
    let vm = Engine.vm engine in
    let idx = work_index vm in
    let args = [ Value.Number arg ] in
    let call () = ignore (Vm.call_function vm idx args) in
    (* one untimed run: steady state before either arm *)
    call ();
    (* scale each measured arm to ~0.5 s of CPU so the ON arm collects
       hundreds of ticks at 997 Hz (one call is only ~a millisecond) *)
    let t_once = time_best call in
    let reps = max 20 (int_of_float (0.5 /. Float.max 1e-6 t_once)) in
    let run_arm () =
      let (), dt = time (fun () -> for _ = 1 to reps do call () done) in
      dt /. float_of_int reps
    in
    let t_off = run_arm () in
    Profile.reset ();
    if not (Profile.start ()) then
      failwith "profile bench: sampler failed to arm";
    let t_on = run_arm () in
    Profile.stop ();
    let samples = Profile.total_samples () in
    let attributed = Profile.attributed_fraction () in
    let overhead = (t_on -. t_off) /. Float.max 1e-9 t_off in
    let frames = Profile.report () in
    Table.print ~headers:[ "frame"; "ticks" ]
      (List.map (fun (n, c) -> [ n; string_of_int c ]) frames);
    Printf.printf
      "\n%s: off %.2f ms, on %.2f ms — overhead %+.1f%%\n\
       %d samples, %.1f%% attributed to named frames\n"
      name (t_off *. 1000.0) (t_on *. 1000.0) (100.0 *. overhead) samples
      (100.0 *. attributed);
    emit "profile"
      (Jsonx.Assoc
         [
           ("available", Jsonx.Bool true);
           ("workload", Jsonx.String name);
           ("off_ms", Jsonx.Float (t_off *. 1000.0));
           ("on_ms", Jsonx.Float (t_on *. 1000.0));
           ("overhead_fraction", Jsonx.Float overhead);
           ("samples", Jsonx.Int samples);
           ("attributed_fraction", Jsonx.Float attributed);
           ( "frames",
             Jsonx.Assoc (List.map (fun (n, c) -> (n, Jsonx.Int c)) frames) );
         ])
  end
