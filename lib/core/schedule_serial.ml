let header = "# pim-sched schedule v1"

let encode ~head plan =
  let n_windows = Schedule.n_windows plan and n_data = Schedule.n_data plan in
  (* one buffer sized for the whole plan (a "w <window>" line of
     " <rank>" per datum for each window): served plans run to hundreds
     of KB, and growing by doubling left twice that in garbage *)
  let rank_chars =
    1 + String.length (string_of_int (Schedule.host_size plan - 1))
  in
  let buf =
    Buffer.create
      (64 + String.length head + (n_windows * (8 + (n_data * rank_chars))))
  in
  Buffer.add_string buf head;
  Buffer.add_string buf (Printf.sprintf "shape %d %d\n" n_windows n_data);
  for w = 0 to n_windows - 1 do
    Buffer.add_string buf (Printf.sprintf "w %d" w);
    for data = 0 to n_data - 1 do
      Buffer.add_char buf ' ';
      Buffer.add_string buf
        (string_of_int (Schedule.center plan ~window:w ~data))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let mesh_line mesh =
  Printf.sprintf "%s %d %d"
    (if Pim.Mesh.wraps mesh then "torus" else "mesh")
    (Pim.Mesh.rows mesh) (Pim.Mesh.cols mesh)

let mesh_of kind rows cols =
  match (kind, int_of_string_opt rows, int_of_string_opt cols) with
  | ("mesh" | "torus"), Some rows, Some cols when rows > 0 && cols > 0 ->
      if kind = "torus" then Pim.Mesh.torus ~rows ~cols
      else Pim.Mesh.create ~rows ~cols
  | ("mesh" | "torus"), _, _ -> failwith "malformed mesh dimensions"
  | _ -> failwith (Printf.sprintf "unknown topology %S" kind)

let to_string schedule =
  let mesh = Schedule.mesh schedule in
  encode ~head:(Printf.sprintf "%s\n%s\n" header (mesh_line mesh)) schedule

let decode ~what ~header ~host s =
  let fail lineno msg =
    failwith (Printf.sprintf "%s: line %d: %s" what lineno msg)
  in
  let plan = ref None and seen = ref 0 in
  let parse_line lineno line =
    match String.split_on_char ' ' (String.trim line) with
    | [ "" ] -> ()
    | word :: _ when String.length word > 0 && word.[0] = '#' -> ()
    | [ "shape"; windows; data ] -> (
        if Option.is_some !plan then fail lineno "duplicate shape";
        let host, size =
          match host ~line:lineno with
          | v -> v
          | exception (Failure msg | Invalid_argument msg) ->
              failwith (Printf.sprintf "%s: %s" what msg)
        in
        match (int_of_string_opt windows, int_of_string_opt data) with
        | Some n_windows, Some n_data when n_windows > 0 && n_data > 0 ->
            plan := Some (Schedule.create_on host ~size ~n_windows ~n_data)
        | _ -> fail lineno "malformed shape")
    | "w" :: index :: ranks -> (
        match (!plan, int_of_string_opt index) with
        | None, _ -> fail lineno "window row before shape"
        | Some plan, Some w ->
            if w <> !seen then
              fail lineno (Printf.sprintf "expected window %d, got %d" !seen w);
            let n_data = Schedule.n_data plan in
            if List.length ranks <> n_data then
              fail lineno
                (Printf.sprintf "expected %d ranks, got %d" n_data
                   (List.length ranks));
            List.iteri
              (fun data rank ->
                match int_of_string_opt rank with
                | Some rank -> (
                    try Schedule.set_center plan ~window:w ~data rank
                    with Invalid_argument msg -> fail lineno msg)
                | None -> fail lineno "malformed rank")
              ranks;
            incr seen
        | Some _, None -> fail lineno "malformed window index")
    | words -> (
        match header words with
        | true -> ()
        | false -> fail lineno (Printf.sprintf "unrecognized line %S" line)
        | exception (Failure msg | Invalid_argument msg) -> fail lineno msg)
  in
  List.iteri
    (fun i line -> parse_line (i + 1) line)
    (String.split_on_char '\n' s);
  match !plan with
  | None -> failwith (Printf.sprintf "%s: no schedule found" what)
  | Some plan ->
      if !seen <> Schedule.n_windows plan then
        failwith
          (Printf.sprintf "%s: %d of %d windows present" what !seen
             (Schedule.n_windows plan));
      plan

let of_string s =
  let mesh = ref None in
  decode ~what:"Schedule_serial.of_string" s
    ~header:(function
      | [ (("mesh" | "torus") as kind); rows; cols ] ->
          if !mesh <> None then failwith "duplicate mesh declaration";
          mesh := Some (mesh_of kind rows cols);
          true
      | _ -> false)
    ~host:(fun ~line ->
      match !mesh with
      | Some m -> (m, Pim.Mesh.size m)
      | None -> failwith (Printf.sprintf "line %d: shape before mesh" line))

let save schedule path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_string schedule))

let load path = of_string (In_channel.with_open_text path In_channel.input_all)
