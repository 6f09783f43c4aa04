type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Non-finite floats have no JSON spelling; integers print without the
   fraction so goldens stay readable. Everything else gets fixed-point
   with enough digits for microsecond timestamps within a run. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s =
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.0f" f
      else Printf.sprintf "%.6f" f
    in
    (* negative zero (exact, or tiny values rounded to it) re-parses as
       zero, so print it unsigned to keep print/parse idempotent *)
    match s with "-0" -> "0" | "-0.000000" -> "0.000000" | _ -> s

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

(* Printed size of [v] give or take escapes, so [to_string] fills one
   buffer: responses carry plan strings of hundreds of KB, and growing a
   buffer by doubling left twice that in garbage per response. *)
let rec size_hint = function
  | String s -> String.length s + 8
  | List l -> List.fold_left (fun acc v -> acc + size_hint v + 1) 2 l
  | Obj f ->
      List.fold_left
        (fun acc (k, v) -> acc + String.length k + size_hint v + 4)
        2 f
  | Null | Bool _ | Int _ | Float _ -> 24

let to_string v =
  let buf = Buffer.create (size_hint v) in
  write buf v;
  Buffer.contents buf

let to_channel oc v =
  output_string oc (to_string v);
  output_char oc '\n'

let write_file path v =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc v)

(* ------------------------------------------------------------------ *)
(* Strict recursive-descent parser (RFC 8259). One value per string;
   anything but whitespace after it is an error. Kept hand-rolled for
   the same reason as the printer: the serve protocol must not pull in
   a JSON dependency. *)

type error = { offset : int; message : string }

let error_to_string e =
  Printf.sprintf "%s at byte %d" e.message e.offset

exception Fail of error

let fail offset message = raise (Fail { offset; message })

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  let n = String.length st.src in
  while
    st.pos < n
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | _ -> fail st.pos (Printf.sprintf "expected '%c'" c)

let literal st word v =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st.pos (Printf.sprintf "expected '%s'" word)

let hex_digit st =
  let c = match peek st with Some c -> c | None -> fail st.pos "expected hex digit" in
  st.pos <- st.pos + 1;
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail (st.pos - 1) "expected hex digit"

let hex4 st =
  let a = hex_digit st in
  let b = hex_digit st in
  let c = hex_digit st in
  let d = hex_digit st in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

(* UTF-8 encode one scalar value (escape decoding only reaches U+10FFFF). *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' ->
        st.pos <- st.pos + 1;
        Buffer.contents buf
    | Some '\\' -> (
        st.pos <- st.pos + 1;
        match peek st with
        | None -> fail st.pos "unterminated escape"
        | Some c ->
            st.pos <- st.pos + 1;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let u = hex4 st in
                if u >= 0xD800 && u <= 0xDBFF then begin
                  (* high surrogate: require the paired \uXXXX low half *)
                  let at = st.pos in
                  if
                    st.pos + 1 < String.length st.src
                    && st.src.[st.pos] = '\\'
                    && st.src.[st.pos + 1] = 'u'
                  then begin
                    st.pos <- st.pos + 2;
                    let lo = hex4 st in
                    if lo >= 0xDC00 && lo <= 0xDFFF then
                      add_utf8 buf
                        (0x10000
                        + ((u - 0xD800) lsl 10)
                        + (lo - 0xDC00))
                    else fail at "expected low surrogate"
                  end
                  else fail at "expected low surrogate"
                end
                else if u >= 0xDC00 && u <= 0xDFFF then
                  fail (st.pos - 4) "unpaired low surrogate"
                else add_utf8 buf u
            | _ -> fail (st.pos - 1) "invalid escape");
            go ())
    | Some c when Char.code c < 0x20 ->
        fail st.pos "unescaped control character in string"
    | Some c ->
        st.pos <- st.pos + 1;
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_digit () =
    match peek st with Some '0' .. '9' -> true | _ -> false
  in
  if peek st = Some '-' then st.pos <- st.pos + 1;
  (* integer part: 0 | [1-9][0-9]* *)
  (match peek st with
  | Some '0' -> st.pos <- st.pos + 1
  | Some '1' .. '9' -> while is_digit () do st.pos <- st.pos + 1 done
  | _ -> fail st.pos "expected digit");
  let is_int = ref true in
  if peek st = Some '.' then begin
    is_int := false;
    st.pos <- st.pos + 1;
    if not (is_digit ()) then fail st.pos "expected digit after '.'";
    while is_digit () do st.pos <- st.pos + 1 done
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      is_int := false;
      st.pos <- st.pos + 1;
      (match peek st with
      | Some ('+' | '-') -> st.pos <- st.pos + 1
      | _ -> ());
      if not (is_digit ()) then fail st.pos "expected digit in exponent";
      while is_digit () do st.pos <- st.pos + 1 done
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  if !is_int then
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text) (* out of int range *)
  else Float (float_of_string text)

(* Containers deeper than this fail with a typed error instead of
   exhausting the OCaml stack: the recursive-descent parser recurses
   once per nesting level, and a hostile line of "[[[[…" would
   otherwise turn into [Stack_overflow] — an untyped crash — inside
   whatever daemon called [parse]. 512 is far beyond any legitimate
   request or metrics document. *)
let max_depth = 512

let rec parse_value depth st =
  if depth > max_depth then
    fail st.pos (Printf.sprintf "nesting deeper than %d" max_depth);
  skip_ws st;
  match peek st with
  | None -> fail st.pos "expected value"
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value (depth + 1) st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              fields ((k, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail st.pos "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              items (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List.rev (v :: acc)
          | _ -> fail st.pos "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some _ -> fail st.pos "expected value"

let parse s =
  let st = { src = s; pos = 0 } in
  match
    let v = parse_value 0 st in
    skip_ws st;
    if st.pos <> String.length s then fail st.pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail e -> Error e
