let validate_initial mesh ~n_data initial =
  if Array.length initial <> n_data then
    invalid_arg
      (Printf.sprintf "Adapt: initial placement has %d entries for %d data"
         (Array.length initial) n_data);
  Array.iteri
    (fun d rank ->
      if rank < 0 || rank >= Pim.Mesh.size mesh then
        invalid_arg
          (Printf.sprintf "Adapt: datum %d starts at invalid rank %d" d rank))
    initial

(* The GOMCDS DP with the entry cost augmented by the migration from the
   imposed location into the window-0 center: row 0 gains the start
   distance, which splits per axis like the row itself. *)
let solve_from ?admit problem ~data ~start =
  let rows = Problem.layer_rows problem ~data in
  let mesh = Problem.mesh problem in
  rows.(0) <-
    (match rows.(0) with
    | Problem.Axis_sum (cx, cy) ->
        let cols = Array.length cx and wrap = Pim.Mesh.wraps mesh in
        let from s a =
          let extent = Array.length a in
          Array.mapi (fun i c -> c + Pim.Mesh.axis_hops ~wrap ~extent s i) a
        in
        Problem.Axis_sum (from (start mod cols) cx, from (start / cols) cy)
    | r ->
        Problem.Full
          (Array.init (Pim.Mesh.size mesh) (fun j ->
               Pathgraph.Layered.entry r j
               + Problem.distance problem start j)));
  Pathgraph.Layered.solve ?admit ~n_layers:(Array.length rows)
    [| { relaxation = Problem.relaxation problem; rows } |]

let schedule ~initial problem =
  (* no fault semantics: the admit rows carry no alive mask and the
     recovery costs use raw mesh distances *)
  if not (Pim.Fault.is_none (Problem.fault problem)) then
    invalid_arg "Adapt.schedule: sessions with a fault model are not supported";
  let mesh = Problem.mesh problem in
  let n_data = Problem.n_data problem in
  let n_windows = Problem.n_windows problem in
  validate_initial mesh ~n_data initial;
  Problem.check_feasible problem ~who:"Adapt.schedule";
  let schedule = Schedule.create mesh ~n_windows ~n_data in
  let memories =
    match Problem.capacity problem with
    | None -> None
    | Some _ ->
        Some (Array.init n_windows (fun _ -> Problem.fresh_memory problem))
  in
  List.iter
    (fun data ->
      let start = initial.(data) in
      let centers =
        match memories with
        | None -> snd (Option.get (solve_from problem ~data ~start))
        | Some mems ->
            let admit layer = Pim.Memory.admit_row mems.(layer) in
            let _, centers =
              Option.get (solve_from ~admit problem ~data ~start)
            in
            Array.iteri
              (fun layer rank ->
                let ok = Pim.Memory.allocate mems.(layer) rank in
                assert ok)
              centers;
            centers
      in
      Array.iteri
        (fun w rank -> Schedule.set_center schedule ~window:w ~data rank)
        centers)
    (Ordering.by_total_references (Problem.trace problem));
  schedule

type recovery = {
  imposed_static : int;
  adaptive : int;
  free_optimal : int;
  recovered : float;
}

(* Cost of never moving: the imposed placement run statically, PLUS no
   initial migration (the data are already there). *)
let static_cost mesh trace initial =
  let space = Reftrace.Trace.space trace in
  let total = ref 0 in
  List.iter
    (fun window ->
      List.iter
        (fun data ->
          total :=
            !total
            + Reftrace.Data_space.volume_of space data
              * Cost.reference_cost mesh window ~data ~center:initial.(data))
        (Reftrace.Window.referenced_data window))
    (Reftrace.Trace.windows trace);
  !total

let adaptive_cost mesh trace initial schedule =
  (* total schedule cost plus the charged migration out of the imposed
     placement into window 0 *)
  let space = Reftrace.Trace.space trace in
  let base = Schedule.total_cost schedule trace in
  let entry = ref 0 in
  for data = 0 to Schedule.n_data schedule - 1 do
    entry :=
      !entry
      + Reftrace.Data_space.volume_of space data
        * Pim.Mesh.distance mesh initial.(data)
            (Schedule.center schedule ~window:0 ~data)
  done;
  base + !entry

let recovery ~initial problem =
  let mesh = Problem.mesh problem and trace = Problem.trace problem in
  let schedule = schedule ~initial problem in
  let imposed_static = static_cost mesh trace initial in
  let adaptive = adaptive_cost mesh trace initial schedule in
  (* the free optimum reads the session's caches under no capacity *)
  let free_optimal =
    Bounds.lower_bound_in (Problem.with_policy problem Problem.Unbounded)
  in
  let recovered =
    let headroom = imposed_static - free_optimal in
    if headroom <= 0 then 1.
    else float_of_int (imposed_static - adaptive) /. float_of_int headroom
  in
  { imposed_static; adaptive; free_optimal; recovered }
