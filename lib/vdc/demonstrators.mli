(** Vulnerability demonstrator codes (VDCs) — one exploit per modeled CVE,
    written against the mini-JS runtime but following the anatomy of the
    public PoCs the paper evaluates with: warm the target function with
    benign types/indices past the Ion threshold, flip to the malicious
    shape, derive a corrupted-length read/write primitive from the
    mis-optimized access, then locate and overwrite the simulated JIT code
    pointer (or crash / leak, for the CVEs whose public PoCs do that).

    Each demonstrator also records the {e expected observable} on an
    unpatched engine, so the security harness can assert both directions:
    exploit fires without JITBULL, and is neutralized with the VDC's DNA
    in the database. *)

type observable =
  | Shellcode  (** {!Jitbull_runtime.Errors.Shellcode_executed} raised *)
  | Crash  (** {!Jitbull_runtime.Errors.Crash} raised *)
  | Pwned_marker  (** the script itself prints a ["PWNED…"] line *)

type t = {
  cve : Jitbull_passes.Vuln_config.cve;
  name : string;  (** e.g. "CVE-2019-17026" *)
  dangerous_pass : string;  (** the pipeline pass the exploit abuses *)
  source : string;
  expected : observable;
}

val all : t list

val find : Jitbull_passes.Vuln_config.cve -> t

(** [harvest db cves] harvests each listed CVE's demonstrator into
    [db] ({!Jitbull_core.Db.harvest}) on an engine carrying only that
    CVE's bug, as its reporter would, in list order. Returns each
    demonstrator with the number of entries it added. *)
val harvest :
  Jitbull_core.Db.t ->
  Jitbull_passes.Vuln_config.cve list ->
  (t * int) list

(** [second_implementation_17026] — an independent re-implementation of
    the CVE-2019-17026 exploit (the paper's "implementation 2" by a
    different developer): same flaw, different code. *)
val second_implementation_17026 : string

type exploit_result =
  | Exploited of string  (** description of the observed effect *)
  | Neutralized  (** ran with no exploit observable *)

(** [run_exploit config source expected] executes the script under the
    given engine configuration and classifies the outcome against the
    demonstrator's expected observable. *)
val run_exploit :
  Jitbull_jit.Engine.config -> string -> observable -> exploit_result
