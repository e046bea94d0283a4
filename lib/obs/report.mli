(** Turns a metrics snapshot into ready-to-print tables (headers + rows
    for {!Jitbull_util.Text_table}-style renderers; this module returns
    plain strings so [jitbull_obs] stays dependency-free). *)

(** Per-pass compile-time profile from the pipeline's
    ["pass.<name>.seconds"] histograms and ["pass.<name>.delta_size"]
    counters, sorted by total time, descending. Returns
    [(headers, rows)]; empty rows when nothing was instrumented. *)
val pass_profile : Metrics.view -> string list * string list list
