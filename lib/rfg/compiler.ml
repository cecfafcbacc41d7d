module Bgp = Pvr_bgp

type config = {
  owner : Bgp.Asn.t;
  promises : (Bgp.Asn.t * Promise.t) list;
  neighbors : Bgp.Asn.t list;
}

type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

(* ---- Lexer -------------------------------------------------------------- *)

type token = { text : string; line : int }

let tokenize src =
  let tokens = ref [] in
  let buf = Buffer.create 16 in
  let line = ref 1 in
  let flush_word () =
    if Buffer.length buf > 0 then begin
      tokens := { text = Buffer.contents buf; line = !line } :: !tokens;
      Buffer.clear buf
    end
  in
  let emit c =
    flush_word ();
    tokens := { text = String.make 1 c; line = !line } :: !tokens
  in
  let in_comment = ref false in
  String.iter
    (fun c ->
      match c with
      | '\n' ->
          flush_word ();
          in_comment := false;
          incr line
      | _ when !in_comment -> ()
      | '#' ->
          flush_word ();
          in_comment := true
      | ' ' | '\t' | '\r' -> flush_word ()
      | '{' | '}' | ';' -> emit c
      | _ -> Buffer.add_char buf c)
    src;
  flush_word ();
  List.rev !tokens

(* ---- Parser ------------------------------------------------------------- *)

exception Parse_error of error

let fail line message = raise (Parse_error { line; message })

type stream = { mutable toks : token list; mutable last_line : int }

let peek s = match s.toks with [] -> None | t :: _ -> Some t

let next s =
  match s.toks with
  | [] -> fail s.last_line "unexpected end of input"
  | t :: rest ->
      s.toks <- rest;
      s.last_line <- t.line;
      t

let expect s text =
  let t = next s in
  if t.text <> text then
    fail t.line (Printf.sprintf "expected %S, found %S" text t.text)

let accept s text =
  match peek s with
  | Some t when t.text = text ->
      ignore (next s);
      true
  | _ -> false

let parse_asn s =
  let t = next s in
  let n =
    if String.length t.text > 2 && String.sub t.text 0 2 = "AS" then
      int_of_string_opt (String.sub t.text 2 (String.length t.text - 2))
    else None
  in
  match n with
  | Some n when n >= 0 -> Bgp.Asn.of_int n
  | _ -> fail t.line (Printf.sprintf "expected an AS number, found %S" t.text)

let parse_int s =
  let t = next s in
  match int_of_string_opt t.text with
  | Some n -> n
  | None -> fail t.line (Printf.sprintf "expected a number, found %S" t.text)

(* One or more AS numbers, up to (not consuming) a keyword/terminator. *)
let parse_asn_list s =
  let rec go acc =
    match peek s with
    | Some t
      when String.length t.text > 2
           && String.sub t.text 0 2 = "AS"
           && int_of_string_opt (String.sub t.text 2 (String.length t.text - 2))
              <> None ->
        go (parse_asn s :: acc)
    | _ -> List.rev acc
  in
  let asns = go [] in
  if asns = [] then fail s.last_line "expected at least one AS number";
  asns

let parse_promise_body s =
  let t = next s in
  match t.text with
  | "shortest" -> Promise.Shortest_route
  | "shortest-from" -> Promise.Shortest_from (parse_asn_list s)
  | "within-hops" -> Promise.Within_hops (parse_int s)
  | "no-longer-than-others" -> Promise.No_longer_than_others
  | "export-if-any" -> Promise.Export_if_any (parse_asn_list s)
  | "prefer" ->
      let fallback = parse_asn_list s in
      expect s "unless-shorter";
      let override = parse_asn s in
      Promise.Prefer_unless_shorter { fallback; override }
  | other -> fail t.line (Printf.sprintf "unknown promise %S" other)

let parse_config s =
  expect s "policy";
  expect s "for";
  let owner = parse_asn s in
  expect s "{";
  let promises = ref [] and neighbors = ref None in
  let rec items () =
    if accept s "}" then ()
    else begin
      let t = next s in
      (match t.text with
      | "promise" ->
          expect s "to";
          let beneficiary = parse_asn s in
          expect s "=";
          let p = parse_promise_body s in
          expect s ";";
          promises := (beneficiary, p) :: !promises
      | "neighbors" when !neighbors = None ->
          let asns = parse_asn_list s in
          if List.length (List.sort_uniq Bgp.Asn.compare asns)
             <> List.length asns
          then fail t.line "a neighbor listed twice";
          neighbors := Some asns;
          expect s ";"
      | "neighbors" -> fail t.line "a second neighbors statement"
      | other -> fail t.line (Printf.sprintf "unexpected %S" other));
      items ()
    end
  in
  items ();
  (match peek s with
  | Some t -> fail t.line (Printf.sprintf "trailing input: %S" t.text)
  | None -> ());
  {
    owner;
    promises = List.rev !promises;
    neighbors = Option.value !neighbors ~default:[];
  }

let parse src =
  let s = { toks = tokenize src; last_line = 1 } in
  match parse_config s with
  | config -> Ok config
  | exception Parse_error e -> Error e

let compile config =
  List.map
    (fun (beneficiary, promise) ->
      ( beneficiary,
        promise,
        Promise.reference_rfg promise ~beneficiary ~neighbors:config.neighbors ))
    config.promises

(* ---- Renderer ----------------------------------------------------------- *)

let render_asns asns = String.concat " " (List.map Bgp.Asn.to_string asns)

let render_promise = function
  | Promise.Shortest_route -> "shortest"
  | Promise.Shortest_from asns -> "shortest-from " ^ render_asns asns
  | Promise.Within_hops n -> "within-hops " ^ string_of_int n
  | Promise.No_longer_than_others -> "no-longer-than-others"
  | Promise.Export_if_any asns -> "export-if-any " ^ render_asns asns
  | Promise.Prefer_unless_shorter { fallback; override } ->
      "prefer " ^ render_asns fallback ^ " unless-shorter "
      ^ Bgp.Asn.to_string override

let render config =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "policy for %s {\n" (Bgp.Asn.to_string config.owner));
  List.iter
    (fun (b, p) ->
      Buffer.add_string buf
        (Printf.sprintf "  promise to %s = %s;\n" (Bgp.Asn.to_string b)
           (render_promise p)))
    config.promises;
  if config.neighbors <> [] then
    Buffer.add_string buf
      (Printf.sprintf "  neighbors %s;\n" (render_asns config.neighbors));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
