(** The jitbulld wire protocol: JSONL verdict batches and the
    JSON codecs shared by server ({!Service}) and client ({!Client}).

    A [/verdict] POST body is one JSON object per line, each a
    {!verdict_req}; the response body mirrors it with one
    {!verdict_resp} per request, matched by [id]. DNA travels as the
    text of {!Jitbull_core.Dna.to_sexpr} — the client extracted it from
    the compile trace anyway, and the sexpr form is the DB's canonical
    serialization. The text is the compact one-line form
    ({!Jitbull_util.Sexpr.to_string}), not the DB file's multi-line
    layout; the server's parser accepts either. *)

type verdict = [ `Allow | `Disable of string list | `Forbid ]

type verdict_req = {
  vr_id : int;  (** caller-chosen; echoed in the response *)
  vr_func : string;
  vr_bytecode_hash : int;
  vr_feedback_hash : int;
  vr_dna : string;  (** [Dna.to_sexpr] text, compact *)
}

type verdict_resp = {
  vs_id : int;
  vs_verdict : verdict;
  vs_passes : string list;  (** dangerous-pass union, pipeline order *)
  vs_matched : (string * string list) list;
      (** CVE → matching passes; empty on a server cache hit (the cache
          stores decisions, not evidence) *)
  vs_generation : int;  (** DB generation the verdict is valid against *)
  vs_cached : bool;  (** answered from the server's verdict cache *)
}

val verdict_name : verdict -> string

val decision_of_verdict : verdict -> Jitbull_jit.Engine.decision

val req_to_json : verdict_req -> Jitbull_obs.Jsonx.t
val req_of_json : Jitbull_obs.Jsonx.t -> verdict_req
val resp_to_json : verdict_resp -> Jitbull_obs.Jsonx.t
val resp_of_json : Jitbull_obs.Jsonx.t -> verdict_resp

(** JSONL: one object per line; decoders skip blank lines and raise
    [Jsonx.Parse_error] / [Sexpr.Decode_error] on malformed input. *)

val encode_reqs : verdict_req list -> string
val decode_reqs : string -> verdict_req list
val encode_resps : verdict_resp list -> string
val decode_resps : string -> verdict_resp list

(** FNV-1a over a raw, unparsed JSONL request line — the server's line
    cache key. A hit answers with a pre-rendered response line, skipping
    JSON parse and render entirely; the server compares the stored
    line's bytes too, since 62 bits can collide. *)
val line_key : string -> int
