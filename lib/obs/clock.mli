(** The one time source behind every duration the repo measures.

    The tracer's spans, [Obs.time] histograms, the engine's stall
    accounting and the benchmark harness all read {!now} instead of
    calling [Unix.gettimeofday] directly, so tests can install a manual
    source with {!with_source} and get deterministic durations.

    The installed source is consulted on every {!now} call — components
    capture the {!now} function, not the source it currently resolves
    to — and is stored in an [Atomic.t], so swapping is safe while other
    domains are timing spans. *)

type source = unit -> float
(** Absolute seconds. Only differences are ever interpreted. *)

(** [Unix.gettimeofday] — the default source. *)
val wall : source

(** The process-wide source currently installed. *)
val source : unit -> source

(** [now ()] — current time per the installed source. *)
val now : unit -> float

(** [with_source s f] installs [s] for the dynamic extent of [f], then
    restores the previous source (also on exceptions). *)
val with_source : source -> (unit -> 'a) -> 'a

(** [manual ?start ()] — a test clock: returns the source and an
    [advance] function adding seconds to it. *)
val manual : ?start:float -> unit -> source * (float -> unit)
