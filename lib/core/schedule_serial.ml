let header = "# pim-sched schedule v1"

let to_string schedule =
  let mesh = Schedule.mesh schedule in
  (* one buffer sized for the whole plan (a "w <window>" line of
     " <rank>" per datum for each window): served plans run to hundreds
     of KB, and growing by doubling left twice that in garbage *)
  let rank_chars = 1 + String.length (string_of_int (Pim.Mesh.size mesh - 1)) in
  let buf =
    Buffer.create
      (64
      + Schedule.n_windows schedule
        * (8 + (Schedule.n_data schedule * rank_chars)))
  in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%s %d %d\n"
       (if Pim.Mesh.wraps mesh then "torus" else "mesh")
       (Pim.Mesh.rows mesh) (Pim.Mesh.cols mesh));
  Buffer.add_string buf
    (Printf.sprintf "shape %d %d\n"
       (Schedule.n_windows schedule)
       (Schedule.n_data schedule));
  for w = 0 to Schedule.n_windows schedule - 1 do
    Buffer.add_string buf (Printf.sprintf "w %d" w);
    for data = 0 to Schedule.n_data schedule - 1 do
      Buffer.add_char buf ' ';
      Buffer.add_string buf
        (string_of_int (Schedule.center schedule ~window:w ~data))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

type state = {
  mutable mesh : Pim.Mesh.t option;
  mutable schedule : Schedule.t option;
  mutable seen : int;
}

let fail lineno msg =
  failwith (Printf.sprintf "Schedule_serial.of_string: line %d: %s" lineno msg)

let parse_line st lineno line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "" ] -> ()
  | word :: _ when String.length word > 0 && word.[0] = '#' -> ()
  | [ ("mesh" | "torus") as kind; rows; cols ] -> (
      if st.mesh <> None then fail lineno "duplicate mesh declaration";
      match (int_of_string_opt rows, int_of_string_opt cols) with
      | Some rows, Some cols when rows > 0 && cols > 0 ->
          st.mesh <-
            Some
              (if kind = "torus" then Pim.Mesh.torus ~rows ~cols
               else Pim.Mesh.create ~rows ~cols)
      | _ -> fail lineno "malformed mesh dimensions")
  | [ "shape"; windows; data ] -> (
      match (st.mesh, int_of_string_opt windows, int_of_string_opt data) with
      | None, _, _ -> fail lineno "shape before mesh"
      | Some mesh, Some n_windows, Some n_data
        when n_windows > 0 && n_data > 0 ->
          st.schedule <- Some (Schedule.create mesh ~n_windows ~n_data)
      | _ -> fail lineno "malformed shape")
  | "w" :: index :: ranks -> (
      match (st.schedule, int_of_string_opt index) with
      | None, _ -> fail lineno "window row before shape"
      | Some schedule, Some w ->
          if w <> st.seen then
            fail lineno (Printf.sprintf "expected window %d, got %d" st.seen w);
          if List.length ranks <> Schedule.n_data schedule then
            fail lineno
              (Printf.sprintf "expected %d ranks, got %d"
                 (Schedule.n_data schedule)
                 (List.length ranks));
          List.iteri
            (fun data rank ->
              match int_of_string_opt rank with
              | Some rank -> (
                  try Schedule.set_center schedule ~window:w ~data rank
                  with Invalid_argument msg -> fail lineno msg)
              | None -> fail lineno "malformed rank")
            ranks;
          st.seen <- st.seen + 1
      | Some _, None -> fail lineno "malformed window index")
  | _ -> fail lineno (Printf.sprintf "unrecognized line %S" line)

let of_string s =
  let st = { mesh = None; schedule = None; seen = 0 } in
  List.iteri (fun i line -> parse_line st (i + 1) line)
    (String.split_on_char '\n' s);
  match st.schedule with
  | None -> failwith "Schedule_serial.of_string: no schedule found"
  | Some schedule ->
      if st.seen <> Schedule.n_windows schedule then
        failwith
          (Printf.sprintf
             "Schedule_serial.of_string: %d of %d windows present" st.seen
             (Schedule.n_windows schedule));
      schedule

let save schedule path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string schedule))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))
