type t =
  | Atom of string
  | List of t list

exception Decode_error of string

let decode_error fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

let atom s = Atom s
let list l = List l
let int n = Atom (string_of_int n)
let float f = Atom (Printf.sprintf "%h" f)
let bool b = Atom (if b then "true" else "false")

let to_atom = function
  | Atom s -> s
  | List _ -> decode_error "expected atom, got list"

let to_list = function
  | List l -> l
  | Atom s -> decode_error "expected list, got atom %S" s

let to_int s =
  let a = to_atom s in
  match int_of_string_opt a with
  | Some n -> n
  | None -> decode_error "expected int, got %S" a

let to_float s =
  let a = to_atom s in
  match float_of_string_opt a with
  | Some f -> f
  | None -> decode_error "expected float, got %S" a

let to_bool s =
  match to_atom s with
  | "true" -> true
  | "false" -> false
  | a -> decode_error "expected bool, got %S" a

let field_opt name sexp =
  let items = to_list sexp in
  let matches = function
    | List (Atom n :: payload) when String.equal n name -> Some payload
    | Atom _ | List _ -> None
  in
  List.find_map matches items

let field name sexp =
  match field_opt name sexp with
  | Some payload -> payload
  | None -> decode_error "missing field %S" name

(* Quoting: an atom needs quotes if it is empty or contains a character with
   syntactic meaning. *)
let needs_quotes s =
  String.length s = 0
  || String.exists
       (fun c ->
         match c with
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | '\\' | ';' -> true
         | _ -> false)
       s

(* Appends [s] quoted, copying the runs between escaped characters
   whole. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    match s.[i] with
    | ('"' | '\\' | '\n' | '\t' | '\r') as c ->
      Buffer.add_substring buf s !run (i - !run);
      Buffer.add_char buf '\\';
      Buffer.add_char buf (match c with '\n' -> 'n' | '\t' -> 't' | '\r' -> 'r' | c -> c);
      run := i + 1
    | _ -> ()
  done;
  Buffer.add_substring buf s !run (String.length s - !run);
  Buffer.add_char buf '"'

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  add_quoted buf s;
  Buffer.contents buf

let rec pp ppf = function
  | Atom s -> Format.pp_print_string ppf (if needs_quotes s then escape s else s)
  | List l ->
    Format.fprintf ppf "@[<hv 1>(%a)@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp)
      l

(* The wire form: [pp]'s layout with every break a single space, written
   straight into one buffer. *)
let rec write buf = function
  | Atom s -> if needs_quotes s then add_quoted buf s else Buffer.add_string buf s
  | List l ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ' ';
        write buf x)
      l;
    Buffer.add_char buf ')'

let to_string s =
  let buf = Buffer.create 256 in
  write buf s;
  Buffer.contents buf

(* Parser: an index scanner over the input string. An atom without
   escapes is cut out with [String.sub]; only an atom holding an escape
   is built in a buffer. *)

type cursor = { input : string; len : int; mutable pos : int }

let rec skip_blanks cur =
  if cur.pos < cur.len then
    match cur.input.[cur.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
      cur.pos <- cur.pos + 1;
      skip_blanks cur
    | ';' ->
      (* comment until end of line *)
      cur.pos <-
        Option.value ~default:cur.len (String.index_from_opt cur.input cur.pos '\n');
      skip_blanks cur
    | _ -> ()

(* advance to the next '"' or '\\' of a quoted atom; unterminated at the
   end of input *)
let scan_quoted cur =
  let s = cur.input and i = ref cur.pos in
  while !i < cur.len && match s.[!i] with '"' | '\\' -> false | _ -> true do
    incr i
  done;
  cur.pos <- !i;
  if !i >= cur.len then decode_error "unterminated string at %d" !i

(* the rest of a quoted atom from the backslash at [cur.pos]; [buf]
   holds what came before it *)
let rec parse_escaped cur buf =
  cur.pos <- cur.pos + 1;
  if cur.pos >= cur.len then decode_error "dangling escape at %d" cur.pos;
  Buffer.add_char buf
    (match cur.input.[cur.pos] with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c);
  cur.pos <- cur.pos + 1;
  let run = cur.pos in
  scan_quoted cur;
  Buffer.add_substring buf cur.input run (cur.pos - run);
  if cur.input.[cur.pos] = '"' then begin
    cur.pos <- cur.pos + 1;
    Buffer.contents buf
  end
  else parse_escaped cur buf

let parse_quoted cur =
  let start = cur.pos + 1 in
  cur.pos <- start;
  scan_quoted cur;
  if cur.input.[cur.pos] = '"' then begin
    cur.pos <- cur.pos + 1;
    String.sub cur.input start (cur.pos - 1 - start)
  end
  else begin
    let buf = Buffer.create (cur.pos - start + 16) in
    Buffer.add_substring buf cur.input start (cur.pos - start);
    parse_escaped cur buf
  end

let parse_bare cur =
  let s = cur.input and start = cur.pos in
  let i = ref start in
  while
    !i < cur.len
    &&
    match s.[!i] with
    | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> false
    | _ -> true
  do
    incr i
  done;
  cur.pos <- !i;
  String.sub s start (!i - start)

let rec parse_one cur =
  skip_blanks cur;
  if cur.pos >= cur.len then decode_error "unexpected end of input";
  match cur.input.[cur.pos] with
  | '(' ->
    cur.pos <- cur.pos + 1;
    let rec items acc =
      skip_blanks cur;
      if cur.pos >= cur.len then decode_error "unterminated list"
      else if cur.input.[cur.pos] = ')' then begin
        cur.pos <- cur.pos + 1;
        List (List.rev acc)
      end
      else items (parse_one cur :: acc)
    in
    items []
  | ')' -> decode_error "unexpected ')' at %d" cur.pos
  | '"' -> Atom (parse_quoted cur)
  | _ -> Atom (parse_bare cur)

let of_string input =
  let cur = { input; len = String.length input; pos = 0 } in
  let sexp = parse_one cur in
  skip_blanks cur;
  if cur.pos < cur.len then
    decode_error "trailing garbage %C at %d" input.[cur.pos] cur.pos;
  sexp

let load path =
  let ic = open_in_bin path in
  let finally () = close_in_noerr ic in
  Fun.protect ~finally (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))

let save path sexp =
  let oc = open_out_bin path in
  let finally () = close_out_noerr oc in
  Fun.protect ~finally (fun () ->
      output_string oc (Format.asprintf "%a" pp sexp);
      output_char oc '\n')
