(** Bounded ring of per-compile IR diffs: the raw material behind
    {!Explain}.

    When explain capture is enabled ({!Obs.create} with
    [~explain_capacity]), the analyzer summarizes each compile's snapshot
    trace into one {!compile_diff} — per pass, the instruction/block
    deltas, the opcode multiset diff, and the DNA sub-chains the pass
    introduced or destroyed (the δ⁺/δ⁻ sides the comparator scored,
    keyed by {!Jitbull_util.Intern} ids exactly like [Db]'s postings) —
    and attaches it under the audit record's [seq]. Diffs live in a
    mutex-guarded {!Jitbull_util.Ring} of the last K compiles (oldest
    evicted), so helper
    compile domains attach concurrently with the main thread and memory
    stays bounded no matter how long the engine runs.

    The ring also keeps a cumulative [(pass, cve)] contribution count —
    how many sub-chain instances each pass introduced on compiles where
    that CVE matched — surfaced as
    [jitbull_explain_chains_introduced_total{pass,cve}]. *)

(** IR change one pass made during one compile, as seen between its
    surrounding snapshots. Chains are the Δ sides of the paper's DNA
    vector: [pd_chains_added] is δ⁺ (sub-chain id → multiplicity),
    [pd_chains_removed] is δ⁻, both sorted by materialized key. *)
type pass_diff = {
  pd_pass : string;
  pd_instrs_before : int;
  pd_instrs_after : int;
  pd_blocks_before : int;
  pd_blocks_after : int;
  pd_opcodes_added : (string * int) list;  (** opcode → count, sorted *)
  pd_opcodes_removed : (string * int) list;
  pd_chains_added : (Jitbull_util.Intern.id * int) list;
  pd_chains_removed : (Jitbull_util.Intern.id * int) list;
}

type compile_diff = {
  cd_func : string;
  cd_total_passes : int;  (** pipeline passes the compile ran *)
  cd_passes : pass_diff list;  (** only passes that changed the IR *)
  cd_capture_seconds : float;
}

type t

(** Ring of at most [capacity] (default 64, min 1) compile diffs. *)
val create : ?capacity:int -> unit -> t

val capacity : t -> int

(** Diffs ever attached (≥ retained). *)
val total : t -> int

(** [attach t ~seq diff] — file [diff] under audit sequence number [seq],
    evicting the oldest diff when full. *)
val attach : t -> seq:int -> compile_diff -> unit

(** The diff attached under [seq], if not yet evicted. *)
val find : t -> int -> compile_diff option

(** Retained sequence numbers, oldest first. *)
val seqs : t -> int list

(** [record_contribution t ~pass ~cve n] — account [n] sub-chain
    instances introduced by [pass] on a compile where [cve] matched.
    Cumulative: survives ring eviction. *)
val record_contribution : t -> pass:string -> cve:string -> int -> unit

(** [jitbull_explain_diffs_total] and
    [jitbull_explain_chains_introduced_total{pass,cve}]. *)
val render_prometheus : t -> string

(** Materialize a sub-chain id ({!Intern.to_string}). *)
val chain_key : Jitbull_util.Intern.id -> string
