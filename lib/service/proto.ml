module Jsonx = Jitbull_obs.Jsonx
module Engine = Jitbull_jit.Engine

type verdict = [ `Allow | `Disable of string list | `Forbid ]

type verdict_req = {
  vr_id : int;
  vr_func : string;
  vr_bytecode_hash : int;
  vr_feedback_hash : int;
  vr_dna : string;
}

type verdict_resp = {
  vs_id : int;
  vs_verdict : verdict;
  vs_passes : string list;
  vs_matched : (string * string list) list;
  vs_generation : int;
  vs_cached : bool;
}

let verdict_name = function
  | `Allow -> "allow"
  | `Disable _ -> "disable"
  | `Forbid -> "forbid"

let decision_of_verdict = function
  | `Allow -> Engine.Allow
  | `Disable ps -> Engine.Disable_passes ps
  | `Forbid -> Engine.Forbid_jit

let strings l = Jsonx.List (List.map (fun s -> Jsonx.String s) l)

let string_list j = List.map Jsonx.to_str (Jsonx.to_list_exn j)

let req_to_json r =
  Jsonx.Assoc
    [
      ("id", Jsonx.Int r.vr_id);
      ("func", Jsonx.String r.vr_func);
      ("bytecode_hash", Jsonx.Int r.vr_bytecode_hash);
      ("feedback_hash", Jsonx.Int r.vr_feedback_hash);
      ("dna", Jsonx.String r.vr_dna);
    ]

let req_of_json j =
  {
    vr_id = Jsonx.to_int (Jsonx.member "id" j);
    vr_func = Jsonx.to_str (Jsonx.member "func" j);
    vr_bytecode_hash = Jsonx.to_int (Jsonx.member "bytecode_hash" j);
    vr_feedback_hash = Jsonx.to_int (Jsonx.member "feedback_hash" j);
    vr_dna = Jsonx.to_str (Jsonx.member "dna" j);
  }

let resp_to_json r =
  Jsonx.Assoc
    [
      ("id", Jsonx.Int r.vs_id);
      ("verdict", Jsonx.String (verdict_name r.vs_verdict));
      ("passes", strings r.vs_passes);
      ( "matched",
        Jsonx.Assoc (List.map (fun (cve, ps) -> (cve, strings ps)) r.vs_matched)
      );
      ("generation", Jsonx.Int r.vs_generation);
      ("cached", Jsonx.Bool r.vs_cached);
    ]

let resp_of_json j =
  let passes = string_list (Jsonx.member "passes" j) in
  let verdict =
    match Jsonx.to_str (Jsonx.member "verdict" j) with
    | "allow" -> `Allow
    | "disable" -> `Disable passes
    | "forbid" -> `Forbid
    | s -> raise (Jsonx.Parse_error ("unknown verdict: " ^ s))
  in
  {
    vs_id = Jsonx.to_int (Jsonx.member "id" j);
    vs_verdict = verdict;
    vs_passes = passes;
    vs_matched =
      (match Jsonx.member "matched" j with
      | Jsonx.Assoc kvs -> List.map (fun (cve, ps) -> (cve, string_list ps)) kvs
      | _ -> []);
    vs_generation = Jsonx.to_int (Jsonx.member "generation" j);
    vs_cached =
      (match Jsonx.member "cached" j with Jsonx.Bool b -> b | _ -> false);
  }

(* JSONL framing: one JSON object per line. [Jsonx.to_string] never emits
   raw newlines (control characters are escaped), so lines and values
   cannot be confused. *)

let jsonl enc items = String.concat "\n" (List.map (fun i -> Jsonx.to_string (enc i)) items)

let of_jsonl dec body =
  String.split_on_char '\n' body
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None else Some (dec (Jsonx.parse line)))

let encode_reqs = jsonl req_to_json
let decode_reqs = of_jsonl req_of_json
let encode_resps = jsonl resp_to_json
let decode_resps = of_jsonl resp_of_json

(* FNV-1a-style fold over the whole raw request line — the server's
   line-cache key. Unlike [Hashtbl.hash] (which samples a bounded
   prefix), every byte contributes. A 62-bit hash still collides, so the
   cache checks the stored line's bytes on a hit. (The offset basis is
   not FNV's — that constant doesn't fit OCaml's 63-bit int — but any
   large odd seed serves the same purpose.) *)
let fnv s =
  let h = ref 0x2545F4914F6CDD1D in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h

let line_key line = fnv line land max_int
