type stats = { sweeps : int; improved : int; saved : int }

let refine ?(max_sweeps = 8) problem schedule =
  let n_data = Problem.n_data problem in
  let n_windows = Problem.n_windows problem in
  let trace = Problem.trace problem in
  if
    Schedule.n_data schedule <> n_data
    || Schedule.n_windows schedule <> n_windows
  then invalid_arg "Refine.refine: schedule and trace shapes disagree";
  let capacity = Problem.capacity problem in
  (match capacity with
  | Some c -> (
      match Schedule.check_capacity schedule ~capacity:c with
      | Some (w, rank, load) ->
          invalid_arg
            (Printf.sprintf
               "Refine.refine: input schedule already violates capacity \
                (window %d, rank %d, load %d > %d)"
               w rank load c)
      | None -> ())
  | None -> ());
  (* every sweep re-reads the same per-datum cost vectors: fill them on the
     pool once, up front *)
  Problem.prefetch_all problem;
  let sched = Schedule.copy schedule in
  let m = Pim.Mesh.size (Problem.mesh problem) in
  let loads = Schedule.loads sched in
  (* under a capacity, [rows.(w)] is window w's admit row, byte r
     '\001' iff loads.(w).(r) < c, kept in step with every load change *)
  let admitted w r =
    match capacity with
    | Some c when loads.(w).(r) >= c -> '\000'
    | Some _ | None -> '\001'
  in
  let rows = Array.init n_windows (fun w -> Bytes.init m (admitted w)) in
  let add_load w r delta =
    loads.(w).(r) <- loads.(w).(r) + delta;
    Bytes.set rows.(w) r (admitted w r)
  in
  let admit = Option.map (fun _ w -> rows.(w)) capacity in
  let sweeps = ref 0 and improved = ref 0 and saved = ref 0 in
  let space = Reftrace.Trace.space trace in
  let order = Problem.by_total_references problem in
  let progress = ref true in
  while !progress && !sweeps < max_sweeps do
    incr sweeps;
    progress := false;
    List.iter
      (fun data ->
        let traj = Schedule.centers_of_data sched ~data in
        Array.iteri (fun w r -> add_load w r (-1)) traj;
        let current = Problem.trajectory_cost problem ~data traj in
        let adopted =
          match Problem.solve_datum problem ?admit ~data with
          | Some (cost, centers) when cost < current ->
              Array.iteri
                (fun w rank ->
                  Schedule.set_center sched ~window:w ~data rank;
                  add_load w rank 1)
                centers;
              saved :=
                !saved
                + (Reftrace.Data_space.volume_of space data
                  * (current - cost));
              incr improved;
              progress := true;
              true
          | Some _ | None -> false
        in
        if not adopted then
          Array.iteri (fun w r -> add_load w r 1) traj)
      order
  done;
  (sched, { sweeps = !sweeps; improved = !improved; saved = !saved })

let refined problem = fst (refine problem (Gomcds.schedule problem))

let best_schedule problem =
  (* all four seeds and their refinements share the context's cost-vector
     cache — the vectors are computed exactly once for the whole portfolio *)
  let trace = Problem.trace problem in
  let seeds =
    [
      Gomcds.schedule problem;
      Lomcds.schedule problem;
      Grouping.schedule ~centers:`Local problem;
      Grouping.schedule ~centers:`Global problem;
    ]
  in
  let refined = List.map (fun s -> fst (refine problem s)) seeds in
  match refined with
  | [] -> assert false
  | first :: rest ->
      List.fold_left
        (fun acc s ->
          if Schedule.total_cost s trace < Schedule.total_cost acc trace then
            s
          else acc)
        first rest

