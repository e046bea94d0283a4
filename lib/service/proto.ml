(** The records of one in-process jitbulld decision ({!Service.decide}):
    the request names a compile and carries its DNA as the text of
    {!Jitbull_core.Dna.to_sexpr} — the DB's canonical serialization,
    the same text [/delta] ships DB entries in. *)

type verdict = [ `Allow | `Disable of string list | `Forbid ]

type verdict_req = {
  vr_id : int;  (** caller-chosen; echoed in the response *)
  vr_func : string;
  vr_bytecode_hash : int;
  vr_feedback_hash : int;
  vr_dna : string;  (** [Dna.to_sexpr] text, compact or multi-line *)
}

type verdict_resp = {
  vs_id : int;
  vs_verdict : verdict;
  vs_passes : string list;  (** dangerous-pass union, pipeline order *)
  vs_matched : (string * string list) list;  (** CVE → matching passes *)
  vs_generation : int;  (** DB generation the verdict is valid against *)
}
