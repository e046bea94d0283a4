(* Turns audit records, with the IR diffs they carry, into causal
   go/no-go reports. Pure rendering over immutable inputs — every
   surface (CLI, offline tool, HTTP text and HTML) goes through here. *)

type t = {
  ex_record : Audit.record;
  ex_evidence : Audit.record option;
  ex_diff : Audit.compile_diff option;
}

let resolve ~history (r : Audit.record) =
  let evidence =
    match r.Audit.source with
    | Audit.Fresh -> None
    | Audit.Cache_hit ->
      (* newest earlier Fresh record for the same compile key: the policy
         cache is keyed on exactly these hashes, so this is the decision
         whose verdict was replayed *)
      List.fold_left
        (fun acc (c : Audit.record) ->
          if
            c.Audit.seq < r.Audit.seq
            && c.Audit.source = Audit.Fresh
            && String.equal c.Audit.func_name r.Audit.func_name
            && c.Audit.bytecode_hash = r.Audit.bytecode_hash
            && c.Audit.feedback_hash = r.Audit.feedback_hash
          then
            match acc with
            | Some (p : Audit.record) when p.Audit.seq > c.Audit.seq -> acc
            | _ -> Some c
          else acc)
        None history
  in
  let diff =
    match r.Audit.ir_diff with
    | Some d -> Some d
    | None -> Option.bind evidence (fun (e : Audit.record) -> e.Audit.ir_diff)
  in
  { ex_record = r; ex_evidence = evidence; ex_diff = diff }

(* ---- shared bits ---- *)

let matched_passes (r : Audit.record) =
  let seen = Hashtbl.create 8 in
  List.concat_map (fun cm -> cm.Audit.cm_passes) r.Audit.matches
  |> List.filter_map (fun pm ->
         if Hashtbl.mem seen pm.Audit.pm_pass then None
         else begin
           Hashtbl.add seen pm.Audit.pm_pass ();
           Some pm.Audit.pm_pass
         end)

(* The record whose comparator evidence we narrate: the decision itself,
   or — for a cache hit — the fresh decision it replayed. *)
let evidence_record t =
  match t.ex_evidence with Some e -> e | None -> t.ex_record

let verdict_rationale ?can_disable t =
  let r = t.ex_record in
  match r.Audit.verdict with
  | Audit.Allow ->
    "no DB entry reached Thr/Ratio on any pass; JIT compilation proceeds \
     unrestricted"
  | Audit.Disable ps ->
    Printf.sprintf
      "every matching pass is optional; Ion retries with %s disabled"
      (String.concat ", " ps)
  | Audit.Forbid ->
    let passes = matched_passes (evidence_record t) in
    let mandatory =
      match can_disable with
      | Some f -> List.filter (fun p -> not (f p)) passes
      | None -> []
    in
    (match mandatory with
    | [] ->
      "a matching pass cannot be disabled; Ion compilation is forbidden for \
       this function"
    | ms ->
      Printf.sprintf
        "%s %s cannot be disabled; Ion compilation is forbidden for this \
         function"
        (if List.length ms = 1 then "pass" else "passes")
        (String.concat ", " ms))

(* why a report has no diff: a cache hit's diff is its replayed
   decision's, which may have been evicted *)
let missing_diff t =
  match t.ex_record.Audit.source, t.ex_evidence with
  | Audit.Cache_hit, None -> "per-pass IR diff: evicted with the decision it replayed"
  | _ -> "per-pass IR diff: not captured (explain capture off)"

let fmt_multiset kvs =
  String.concat ", " (List.map (fun (k, c) -> Printf.sprintf "%s x%d" k c) kvs)

(* ---- text ---- *)

let text_of_pass_match buf (pm : Audit.pass_match) ~thr ~ratio =
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  line "  pass %s (%s side): EqChains %d >= Thr %d, and %d >= %.2f x MaxEqChains %d\n"
    pm.Audit.pm_pass pm.Audit.pm_side pm.Audit.pm_eq_chains thr
    pm.Audit.pm_eq_chains ratio pm.Audit.pm_max_eq_chains;
  if pm.Audit.pm_chains <> [] then
    line "    matching sub-chains: %s\n" (fmt_multiset pm.Audit.pm_chains)

let text_of_diff buf (d : Audit.compile_diff) =
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  line "per-pass IR diff (%d of %d passes changed the IR; captured in %.1f us):\n"
    (List.length d.Audit.cd_passes)
    d.Audit.cd_total_passes
    (d.Audit.cd_capture_seconds *. 1e6);
  List.iter
    (fun (p : Audit.pass_diff) ->
      line "  %s: instrs %d -> %d, blocks %d -> %d\n" p.Audit.pd_pass
        p.Audit.pd_instrs_before p.Audit.pd_instrs_after
        p.Audit.pd_blocks_before p.Audit.pd_blocks_after;
      if p.Audit.pd_opcodes_added <> [] then
        line "    opcodes added: %s\n" (fmt_multiset p.Audit.pd_opcodes_added);
      if p.Audit.pd_opcodes_removed <> [] then
        line "    opcodes removed: %s\n" (fmt_multiset p.Audit.pd_opcodes_removed);
      if p.Audit.pd_chains_added <> [] then
        line "    sub-chains introduced: %s\n" (fmt_multiset p.Audit.pd_chains_added);
      if p.Audit.pd_chains_removed <> [] then
        line "    sub-chains destroyed: %s\n" (fmt_multiset p.Audit.pd_chains_removed))
    d.Audit.cd_passes

let to_text ?can_disable t =
  let r = t.ex_record in
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  line "decision #%d: %s -> %s\n" r.Audit.seq r.Audit.func_name
    (Audit.verdict_to_string r.Audit.verdict);
  line
    "function %s (index %d), domain %d, db generation %d (%d entries), decided \
     in %.1f us\n"
    r.Audit.func_name r.Audit.func_index r.Audit.domain r.Audit.db_generation
    r.Audit.db_size
    (r.Audit.duration *. 1e6);
  (match r.Audit.source with
  | Audit.Fresh ->
    line "comparator: Thr %d, Ratio %.2f; prefilter %d candidates -> %d hits\n"
      r.Audit.thr r.Audit.ratio r.Audit.prefilter_candidates
      r.Audit.prefilter_hits
  | Audit.Cache_hit ->
    (match t.ex_evidence with
    | Some e ->
      line
        "source: policy cache hit; replaying stored evidence of decision #%d \
         (same bytecode/feedback hashes, Thr %d, Ratio %.2f)\n"
        e.Audit.seq e.Audit.thr e.Audit.ratio
    | None ->
      line
        "source: policy cache hit; the fresh decision it replayed has been \
         evicted from the audit ring\n"));
  let ev = evidence_record t in
  if ev.Audit.matches = [] then line "no CVE entry matched\n"
  else
    List.iter
      (fun (cm : Audit.cve_match) ->
        line "%s matched on %d pass(es):\n" cm.Audit.cm_cve
          (List.length cm.Audit.cm_passes);
        List.iter
          (fun pm -> text_of_pass_match buf pm ~thr:ev.Audit.thr ~ratio:ev.Audit.ratio)
          cm.Audit.cm_passes)
      ev.Audit.matches;
  line "verdict: %s — %s\n"
    (Audit.verdict_label r.Audit.verdict)
    (verdict_rationale ?can_disable t);
  (match t.ex_diff with
  | Some d -> text_of_diff buf d
  | None -> line "%s\n" (missing_diff t));
  Buffer.contents buf

(* ---- HTML ---- *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let page_css =
  "body{font-family:system-ui,sans-serif;margin:2em;max-width:70em}\
   table{border-collapse:collapse;margin:0.5em 0}\
   th,td{border:1px solid #ccc;padding:0.25em 0.6em;text-align:left;\
   font-size:0.9em}\
   th{background:#f0f0f0}\
   code{background:#f6f6f6;padding:0 0.2em}\
   .allow{color:#0a7a0a}.disable{color:#b06000}.forbid{color:#c00000}\
   .muted{color:#777}"

let page title body =
  Printf.sprintf
    "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>%s</title>\
     <style>%s</style></head><body><h1>%s</h1>%s</body></html>"
    (html_escape title) page_css (html_escape title) body

let table headers rows =
  let cell tag s = Printf.sprintf "<%s>%s</%s>" tag (html_escape s) tag in
  let row tag cells = "<tr>" ^ String.concat "" (List.map (cell tag) cells) ^ "</tr>" in
  "<table>" ^ row "th" headers ^ String.concat "" (List.map (row "td") rows)
  ^ "</table>"

let to_html ?can_disable t =
  let r = t.ex_record in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let vl = Audit.verdict_label r.Audit.verdict in
  line "<p>function <code>%s</code> (index %d) &mdash; verdict <b class=\"%s\">%s</b></p>"
    (html_escape r.Audit.func_name)
    r.Audit.func_index vl
    (html_escape (Audit.verdict_to_string r.Audit.verdict));
  line
    "<p class=\"muted\">source %s, domain %d, db generation %d (%d entries), \
     decided in %.1f &micro;s</p>"
    (Audit.source_to_string r.Audit.source)
    r.Audit.domain r.Audit.db_generation r.Audit.db_size
    (r.Audit.duration *. 1e6);
  (match r.Audit.source, t.ex_evidence with
  | Audit.Cache_hit, Some e ->
    line
      "<p>policy cache hit: replaying stored evidence of decision \
       <a href=\"/explain?id=%d\">#%d</a> (same bytecode/feedback hashes)</p>"
      e.Audit.seq e.Audit.seq
  | Audit.Cache_hit, None ->
    line
      "<p>policy cache hit: the fresh decision it replayed has been evicted \
       from the audit ring</p>"
  | Audit.Fresh, _ ->
    line
      "<p>comparator: Thr %d, Ratio %.2f; prefilter %d candidates &rarr; %d \
       hits</p>"
      r.Audit.thr r.Audit.ratio r.Audit.prefilter_candidates
      r.Audit.prefilter_hits);
  let ev = evidence_record t in
  if ev.Audit.matches = [] then line "<p>no CVE entry matched</p>"
  else
    List.iter
      (fun (cm : Audit.cve_match) ->
        line "<h2>%s</h2>" (html_escape cm.Audit.cm_cve);
        Buffer.add_string buf
          (table
             [ "pass"; "side"; "EqChains"; "Thr"; "MaxEqChains"; "matching sub-chains" ]
             (List.map
                (fun (pm : Audit.pass_match) ->
                  [
                    pm.Audit.pm_pass;
                    pm.Audit.pm_side;
                    string_of_int pm.Audit.pm_eq_chains;
                    string_of_int ev.Audit.thr;
                    string_of_int pm.Audit.pm_max_eq_chains;
                    fmt_multiset pm.Audit.pm_chains;
                  ])
                cm.Audit.cm_passes)))
      ev.Audit.matches;
  line "<p><b>verdict: %s</b> &mdash; %s</p>" (html_escape vl)
    (html_escape (verdict_rationale ?can_disable t));
  (match t.ex_diff with
  | Some d ->
    line "<h2>per-pass IR diff</h2><p class=\"muted\">%d of %d passes changed \
          the IR; captured in %.1f &micro;s</p>"
      (List.length d.Audit.cd_passes)
      d.Audit.cd_total_passes
      (d.Audit.cd_capture_seconds *. 1e6);
    Buffer.add_string buf
      (table
         [ "pass"; "instrs"; "blocks"; "opcodes +"; "opcodes -";
           "sub-chains introduced"; "sub-chains destroyed" ]
         (List.map
            (fun (p : Audit.pass_diff) ->
              [
                p.Audit.pd_pass;
                Printf.sprintf "%d → %d" p.Audit.pd_instrs_before
                  p.Audit.pd_instrs_after;
                Printf.sprintf "%d → %d" p.Audit.pd_blocks_before
                  p.Audit.pd_blocks_after;
                fmt_multiset p.Audit.pd_opcodes_added;
                fmt_multiset p.Audit.pd_opcodes_removed;
                fmt_multiset p.Audit.pd_chains_added;
                fmt_multiset p.Audit.pd_chains_removed;
              ])
            d.Audit.cd_passes))
  | None ->
    line "<p class=\"muted\">%s</p>" (html_escape (missing_diff t)));
  page (Printf.sprintf "decision #%d: %s" r.Audit.seq r.Audit.func_name)
    (Buffer.contents buf)

let index_html ?(limit = 32) records =
  let recent =
    List.rev records |> List.filteri (fun i _ -> i < max 0 limit)
  in
  let rows =
    List.map
      (fun (r : Audit.record) ->
        Printf.sprintf
          "<tr><td><a href=\"/explain?id=%d\">#%d</a></td><td><code>%s</code>\
           </td><td class=\"%s\">%s</td><td>%s</td><td>%s</td><td>%s</td></tr>"
          r.Audit.seq r.Audit.seq
          (html_escape r.Audit.func_name)
          (Audit.verdict_label r.Audit.verdict)
          (html_escape (Audit.verdict_to_string r.Audit.verdict))
          (html_escape
             (String.concat " "
                (List.map (fun cm -> cm.Audit.cm_cve) r.Audit.matches)))
          (Audit.source_to_string r.Audit.source)
          (if r.Audit.ir_diff <> None then "yes" else "no"))
      recent
  in
  page "go/no-go decisions"
    ("<p>newest first; <code>diff</code> says whether the record carries \
      the compile's IR diff</p><table><tr><th>id</th><th>function</th>\
      <th>verdict</th><th>cves</th><th>source</th><th>diff</th></tr>"
    ^ String.concat "" rows ^ "</table>")
