(* The split-based trace parser [Reftrace.Serial.of_string] replaced:
   the whole text split into lines, each line trimmed and split into
   words. The one-pass scanner must accept exactly what this accepts,
   build an equal trace, and fail with the same message. *)

open Reftrace

type parse_state = {
  mutable arrays : Data_space.array_desc list; (* reversed *)
  mutable space : Data_space.t option;
  mutable windows : Window.t list; (* reversed *)
  mutable current : Window.t option;
}

let fail lineno msg =
  failwith (Printf.sprintf "Serial.of_string: line %d: %s" lineno msg)

let finish_window st =
  match st.current with
  | Some w ->
      st.windows <- w :: st.windows;
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
          if i <> List.length st.windows then
            fail lineno
              (Printf.sprintf "expected window %d, got %d"
                 (List.length st.windows) i);
          st.current <- Some (Window.create ~n_data:(Data_space.size space))
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
      | Some w, Some data, Some proc, Some count -> (
          try Window.add w ~kind ~data ~proc ~count
          with Invalid_argument msg -> fail lineno msg)
      | Some _, _, _, _ -> fail lineno "malformed ref line")
  | _ -> fail lineno (Printf.sprintf "unrecognized line %S" line)

let of_string s =
  let st = { arrays = []; space = None; windows = []; current = None } in
  List.iteri
    (fun i line -> parse_line st (i + 1) line)
    (String.split_on_char '\n' s);
  finish_window st;
  match (st.space, List.rev st.windows) with
  | None, _ -> failwith "Serial.of_string: empty input"
  | Some _, [] -> failwith "Serial.of_string: no windows"
  | Some space, windows -> Trace.create space windows

