(* jitbull-db — manage a JITBULL DNA-vector database.

     jitbull-db harvest --cve CVE-2019-17026 --db out.db exploit.js
     jitbull-db harvest --cve ... --vuln CVE-... --db out.db exploit.js
     jitbull-db list --db out.db
     jitbull-db show --db out.db --cve CVE-2019-17026
     jitbull-db remove --cve CVE-2019-17026 --db out.db     (patch applied)
     jitbull-db builtin --db out.db CVE-2019-17026 ...      (bundled VDCs, fresh DB)
     jitbull-db explain audit.jsonl                          (offline reports)
     jitbull-db explain --func tri --all audit.jsonl *)

open Cmdliner
module Db = Jitbull_core.Db
module Dna = Jitbull_core.Dna
module VC = Jitbull_passes.Vuln_config
module V = Jitbull_vdc.Demonstrators
module Audit = Jitbull_obs.Audit
module Explain = Jitbull_obs.Explain
module Jsonx = Jitbull_obs.Jsonx
module Pipeline = Jitbull_passes.Pipeline

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_or_create path = if Sys.file_exists path then Db.load path else Db.create ()

let parse_cves names =
  List.map
    (fun name ->
      match VC.cve_of_name name with
      | Some cve -> cve
      | None -> failwith ("unknown CVE " ^ name))
    names

(* harvest *)
let harvest cve vuln_names db_path script =
  let vulns =
    match vuln_names with
    | [] -> (
      (* default: if the CVE is one of the modeled ones, activate its bug *)
      match VC.cve_of_name cve with
      | Some c -> VC.make [ c ]
      | None -> VC.none)
    | names -> VC.make (parse_cves names)
  in
  let db = load_or_create db_path in
  let n = Db.harvest db ~cve ~vulns (read_file script) in
  Db.save db db_path;
  Printf.printf "harvested %d DNA vector(s) for %s into %s\n" n cve db_path;
  `Ok ()

let list_cmd db_path =
  let db = Db.load db_path in
  List.iter
    (fun (e : Db.entry) ->
      Printf.printf "%-18s function %-16s non-empty passes: %s\n" e.Db.cve
        e.Db.dna.Dna.func_name
        (String.concat ", " (Dna.nonempty_passes e.Db.dna)))
    (Db.entries db);
  Printf.printf "%d entries, %d distinct CVEs\n" (List.length (Db.entries db))
    (List.length (Db.cves db));
  `Ok ()

let show db_path cve =
  let db = Db.load db_path in
  List.iter
    (fun (e : Db.entry) ->
      if String.equal e.Db.cve cve then print_string (Dna.to_string e.Db.dna))
    (Db.entries db);
  `Ok ()

let remove db_path cve =
  let db = Db.load db_path in
  let before = List.length (Db.entries db) in
  Db.remove_cve db cve;
  Db.save db db_path;
  Printf.printf "removed %d entries for %s (patch applied)\n"
    (before - List.length (Db.entries db))
    cve;
  `Ok ()

(* writes a fresh DB: rerunning on the same file rewrites the same bytes *)
let builtin db_path cves =
  let db = Db.create () in
  let targets = if cves = [] then VC.all else parse_cves cves in
  List.iter
    (fun ((d : V.t), n) ->
      Printf.printf "harvested %d DNA vector(s) for %s (bundled demonstrator)\n" n d.V.name)
    (V.harvest db targets);
  Db.save db db_path;
  `Ok ()

(* explain: offline causal reports from a --audit-file JSONL trail.
   Cache-hit decisions replay the stored evidence of the fresh record
   they were copied from, exactly like the live /explain endpoint. A
   trail written under [jsrun --explain] carries each fresh decision's
   per-pass IR diff in its record, so the diff sections render here too;
   without capture they render as "not captured". *)
let explain_cmd audit_path func all =
  let records = ref [] in
  let ic = open_in audit_path in
  (try
     let lineno = ref 0 in
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then
         match Audit.record_of_json (Jsonx.parse line) with
         | r -> records := r :: !records
         | exception Jsonx.Parse_error msg ->
           failwith (Printf.sprintf "%s:%d: %s" audit_path !lineno msg)
     done
   with End_of_file -> close_in ic);
  let records = List.rev !records in
  let interesting (r : Audit.record) =
    (match func with Some f -> String.equal r.Audit.func_name f | None -> true)
    && (all || r.Audit.matches <> [] || r.Audit.verdict <> Audit.Allow)
  in
  let selected = List.filter interesting records in
  Printf.printf "%d of %d decisions in %s\n" (List.length selected)
    (List.length records) audit_path;
  List.iter
    (fun r ->
      let e = Explain.resolve ~history:records r in
      print_string (Explain.to_text ~can_disable:Pipeline.can_disable e);
      print_newline ())
    selected;
  `Ok ()

let db_arg =
  Arg.(required & opt (some string) None & info [ "db" ] ~docv:"FILE" ~doc:"Database file.")

let cve_arg =
  Arg.(required & opt (some string) None & info [ "cve" ] ~docv:"CVE" ~doc:"CVE identifier.")

let vulns_arg =
  Arg.(value & opt_all string [] & info [ "vuln" ] ~docv:"CVE"
       ~doc:"Pass bug(s) to activate while harvesting (default: the CVE itself when modeled).")

let script_arg =
  Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"SCRIPT"
       ~doc:"Demonstrator script.")

let cves_pos =
  Arg.(value & pos_all string [] & info [] ~docv:"CVE" ~doc:"CVEs to install (default: all 8).")

let cmds =
  [
    Cmd.v (Cmd.info "harvest" ~doc:"extract a demonstrator's DNA into the database")
      Term.(ret (const harvest $ cve_arg $ vulns_arg $ db_arg $ script_arg));
    Cmd.v (Cmd.info "list" ~doc:"list database entries")
      Term.(ret (const list_cmd $ db_arg));
    Cmd.v (Cmd.info "show" ~doc:"dump the DNA vectors of one CVE")
      Term.(ret (const show $ db_arg $ cve_arg));
    Cmd.v (Cmd.info "remove" ~doc:"drop a CVE's entries (the patch was applied)")
      Term.(ret (const remove $ db_arg $ cve_arg));
    Cmd.v (Cmd.info "builtin" ~doc:"write a fresh database of bundled demonstrators' DNA")
      Term.(ret (const builtin $ db_arg $ cves_pos));
    (let audit_pos =
       Arg.(required & pos 0 (some non_dir_file) None
            & info [] ~docv:"AUDIT" ~doc:"Audit trail (JSON lines, from jsrun --audit-file).")
     in
     let func_arg =
       Arg.(value & opt (some string) None
            & info [ "func" ] ~docv:"NAME" ~doc:"Only explain decisions for this function.")
     in
     let all_arg =
       Arg.(value & flag
            & info [ "all" ]
                ~doc:"Explain every decision, including clean allows (default: \
                      only decisions that matched a CVE or restricted JIT).")
     in
     Cmd.v
       (Cmd.info "explain"
          ~doc:"render causal go/no-go reports from an audit trail")
       Term.(ret (const explain_cmd $ audit_pos $ func_arg $ all_arg)));
  ]

let () =
  exit (Cmd.eval (Cmd.group (Cmd.info "jitbull-db" ~doc:"manage JITBULL DNA databases") cmds))
