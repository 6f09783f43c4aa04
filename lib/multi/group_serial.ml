let header = "# pim-sched group-plan v1"

let to_string plan =
  let group = Group_schedule.group plan in
  let head = Buffer.create 256 in
  Printf.bprintf head "%s\ninter %s cost %d\n" header
    (Sched.Schedule_serial.mesh_line (Array_group.inter group))
    (Array_group.inter_cost group);
  for m = 0 to Array_group.n_members group - 1 do
    Printf.bprintf head "member %d %s\n" m
      (Sched.Schedule_serial.mesh_line (Array_group.member group m))
  done;
  Sched.Schedule_serial.encode ~head:(Buffer.contents head) plan

let of_string s =
  let inter = ref None and members = ref [] and built = ref false in
  let header = function
    | [ "inter"; kind; rows; cols; "cost"; cost ] ->
        if !inter <> None then failwith "duplicate inter line";
        let cost =
          match int_of_string_opt cost with
          | Some c when c >= 1 -> c
          | _ -> failwith "inter cost must be an integer >= 1"
        in
        inter := Some (Sched.Schedule_serial.mesh_of kind rows cols, cost);
        true
    | "inter" :: _ -> failwith "malformed inter line"
    | [ "member"; index; kind; rows; cols ] ->
        if !built then failwith "member line after shape";
        let expected = List.length !members in
        if int_of_string_opt index <> Some expected then
          failwith (Printf.sprintf "expected member %d, got %s" expected index);
        members := Sched.Schedule_serial.mesh_of kind rows cols :: !members;
        true
    | "member" :: _ -> failwith "malformed member line"
    | _ -> false
  in
  let host ~line:_ =
    built := true;
    match (!inter, !members) with
    | None, _ -> failwith "missing inter line"
    | Some _, [] -> failwith "no member line"
    | Some (inter, inter_cost), members ->
        let members = Array.of_list (List.rev members) in
        let group = Array_group.create ~inter_cost ~inter members in
        (group, Array_group.size group)
  in
  Sched.Schedule_serial.decode ~what:"Group_serial.of_string" ~header ~host s

let save plan path =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_string plan))

let load path = of_string (In_channel.with_open_text path In_channel.input_all)
