let header = "# pim-sched trace v1"

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  let space = Trace.space t in
  List.iter
    (fun (d : Data_space.array_desc) ->
      Buffer.add_string buf
        (if d.volume = 1 then
           Printf.sprintf "array %s %d %d\n" d.name d.rows d.cols
         else
           Printf.sprintf "array %s %d %d %d\n" d.name d.rows d.cols
             d.volume))
    (Data_space.arrays space);
  List.iteri
    (fun i w ->
      Buffer.add_string buf (Printf.sprintf "window %d\n" i);
      List.iter
        (fun data ->
          List.iter
            (fun (proc, count) ->
              Buffer.add_string buf
                (Printf.sprintf "ref %d %d %d\n" data proc count))
            (Window.read_profile w data);
          List.iter
            (fun (proc, count) ->
              Buffer.add_string buf
                (Printf.sprintf "write %d %d %d\n" data proc count))
            (Window.write_profile w data))
        (Window.referenced_data w))
    (Trace.windows t);
  Buffer.contents buf

type parse_state = {
  processors : int; (* ranks at or past this are refused *)
  mutable arrays : Data_space.array_desc list; (* reversed *)
  mutable space : Data_space.t option;
  mutable windows : Window.t list; (* reversed *)
  mutable n_windows : int; (* List.length windows *)
  mutable current : Window.Builder.t option; (* compacted at its end *)
}

let fail lineno msg =
  failwith (Printf.sprintf "Serial.of_string: line %d: %s" lineno msg)

let finish_window st =
  match st.current with
  | Some w ->
      st.windows <- Window.Builder.build w :: st.windows;
      st.n_windows <- st.n_windows + 1;
      st.current <- None
  | None -> ()

let ensure_space st lineno =
  match st.space with
  | Some s -> s
  | None -> (
      match List.rev st.arrays with
      | [] -> fail lineno "no array declared before windows"
      | first :: rest ->
          let s = Data_space.create first rest in
          st.space <- Some s;
          s)

(* A rank past the target is refused while parsing, so no window ever
   holds a reference the mesh cannot serve. *)
let add_ref st lineno kind data proc count =
  match st.current with
  | None -> fail lineno "ref before any window"
  | Some w -> (
      if count > 0 && proc >= st.processors then
        fail lineno
          (Printf.sprintf "processor rank %d out of range (%d processors)"
             proc st.processors);
      try Window.Builder.add w ~kind ~data ~proc ~count
      with Invalid_argument msg -> fail lineno msg)

let parse_line st lineno line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "" ] -> ()
  | word :: _ when String.length word > 0 && word.[0] = '#' -> ()
  | "array" :: name :: rows :: cols :: rest -> (
      if st.space <> None then
        fail lineno "array declarations must precede windows";
      let volume =
        match rest with
        | [] -> Some 1
        | [ v ] -> int_of_string_opt v
        | _ -> None
      in
      match (int_of_string_opt rows, int_of_string_opt cols, volume) with
      | Some rows, Some cols, Some volume when volume > 0 ->
          st.arrays <-
            Data_space.array_desc ~volume name ~rows ~cols :: st.arrays
      | _ -> fail lineno "malformed array dimensions")
  | [ "window"; idx ] -> (
      let space = ensure_space st lineno in
      match int_of_string_opt idx with
      | Some i ->
          finish_window st;
          if i <> st.n_windows then
            fail lineno
              (Printf.sprintf "expected window %d, got %d" st.n_windows i);
          st.current <-
            Some (Window.Builder.create ~n_data:(Data_space.size space))
      | None -> fail lineno "malformed window index")
  | [ ("ref" | "write") as word; data; proc; count ] -> (
      let kind = if word = "ref" then Window.Read else Window.Write in
      match
        ( st.current,
          int_of_string_opt data,
          int_of_string_opt proc,
          int_of_string_opt count )
      with
      | None, _, _, _ -> fail lineno "ref before any window"
      | Some _, Some data, Some proc, Some count ->
          add_ref st lineno kind data proc count
      | Some _, _, _, _ -> fail lineno "malformed ref line")
  | _ -> fail lineno (Printf.sprintf "unrecognized line %S" line)

(* ---- the one-pass scanner ----

   [of_string] walks the text once, line by line, by index. [ref] and
   [write] lines — nearly every line of a trace — are tokenized in place
   and their decimal fields read without a substring; any other line, or
   a ref line the fast path does not cover (a sign, a radix prefix, an
   underscore, too many digits, a field count other than four), goes
   through [parse_line] on the line's own text, so every accepted input
   and every message are those of [parse_line] alone. *)

(* String.trim's whitespace *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* [decimal s i j] is the value of the plain decimal digits [s.[i..j-1]],
   or [-1] when the field is empty, too long to be sure of no overflow,
   or not all digits. *)
let decimal s i j =
  if j <= i || j - i > 18 then -1
  else begin
    let v = ref 0 and ok = ref true in
    for k = i to j - 1 do
      match s.[k] with
      | '0' .. '9' as c -> v := (!v * 10) + (Char.code c - 48)
      | _ -> ok := false
    done;
    if !ok then !v else -1
  end

(* [is_word s i j w]: the field [s.[i..j-1]] is the literal [w]. *)
let is_word s i j w =
  j - i = String.length w
  &&
  let rec go k = k >= j - i || (s.[i + k] = w.[k] && go (k + 1)) in
  go 0

(* [space s i b] is the first space in [s.[i..b-1]], or [b]. *)
let rec space s i b = if i >= b || s.[i] = ' ' then i else space s (i + 1) b

(* [fast_ref st lineno s a b] parses the trimmed line [s.[a..b-1]] if it
   is a ref or write line of exactly four single-space-separated fields
   (the fields [String.split_on_char ' '] would give) with plain decimal
   numbers, and says whether it did. *)
let fast_ref st lineno s a b =
  let e0 = space s a b in
  let e1 = space s (e0 + 1) b in
  let e2 = space s (e1 + 1) b in
  e2 < b
  && space s (e2 + 1) b = b
  &&
  let kind =
    if is_word s a e0 "ref" then Some Window.Read
    else if is_word s a e0 "write" then Some Window.Write
    else None
  in
  match kind with
  | None -> false
  | Some kind ->
      let data = decimal s (e0 + 1) e1
      and proc = decimal s (e1 + 1) e2
      and count = decimal s (e2 + 1) b in
      data >= 0 && proc >= 0 && count >= 0
      && begin
           add_ref st lineno kind data proc count;
           true
         end

let scan_line st lineno s start stop =
  let a = ref start and b = ref stop in
  while !a < !b && is_blank s.[!a] do incr a done;
  while !b > !a && is_blank s.[!b - 1] do decr b done;
  if !a < !b && s.[!a] <> '#' && not (fast_ref st lineno s !a !b) then
    parse_line st lineno (String.sub s start (stop - start))

let of_string ?(processors = max_int) s =
  let st =
    {
      processors;
      arrays = [];
      space = None;
      windows = [];
      n_windows = 0;
      current = None;
    }
  in
  let len = String.length s in
  let rec lines start lineno =
    let stop =
      match String.index_from_opt s start '\n' with Some i -> i | None -> len
    in
    scan_line st lineno s start stop;
    if stop < len then lines (stop + 1) (lineno + 1)
  in
  lines 0 1;
  finish_window st;
  match (st.space, List.rev st.windows) with
  | None, _ -> failwith "Serial.of_string: empty input"
  | Some _, [] -> failwith "Serial.of_string: no windows"
  | Some space, windows -> Trace.create space windows

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))
