let schedule ?(theta = 2.) ?initial problem =
  if theta <= 0. then invalid_arg "Online.schedule: theta must be positive";
  let mesh = Problem.mesh problem in
  let space = Problem.space problem in
  let n_data = Problem.n_data problem in
  let n_windows = Problem.n_windows problem in
  let initial =
    match initial with
    | Some p ->
        if Array.length p <> n_data then
          invalid_arg "Online.schedule: initial placement has the wrong length";
        Array.iteri
          (fun d rank ->
            if rank < 0 || rank >= Pim.Mesh.size mesh then
              invalid_arg
                (Printf.sprintf "Online.schedule: datum %d at invalid rank %d" d
                   rank))
          p;
        Array.copy p
    | None -> Baseline.row_wise mesh space
  in
  Problem.check_feasible problem ~who:"Online.schedule";
  (match Problem.capacity problem with
  | Some c ->
      (* the imposed layout itself must fit *)
      let load = Array.make (Pim.Mesh.size mesh) 0 in
      Array.iter (fun r -> load.(r) <- load.(r) + 1) initial;
      Array.iteri
        (fun rank l ->
          if l > c then
            invalid_arg
              (Printf.sprintf
                 "Online.schedule: initial placement packs %d > %d data at rank %d"
                 l c rank))
        load
  | None -> ());
  let unbounded = Problem.policy problem = Problem.Unbounded in
  let schedule = Schedule.create mesh ~n_windows ~n_data in
  let current = Array.copy initial in
  for w = 0 to n_windows - 1 do
    let window = Problem.window problem w in
    if w > 0 then begin
      (* window-major view: the stay/go probes for every datum of this
         window read the window's rows directly instead of paying a
         cost_entry cache lookup per probe *)
      let rows =
        Array.init n_data (fun data -> Problem.row problem ~window:w ~data)
      in
      let entry data rank = Pathgraph.Layered.entry rows.(data) rank in
      (* one fresh memory per window, pre-filled with the carried data *)
      let memory = Problem.fresh_memory problem in
      Array.iter
        (fun rank ->
          let ok = Pim.Memory.allocate memory rank in
          assert ok)
        current;
      List.iter
        (fun data ->
          let here = current.(data) in
          let stay = entry data here in
          Pim.Memory.release memory here;
          let best =
            if unbounded then
              (* vector-free fast path: with a free slot everywhere the
                 first available candidate is the list head, i.e. the
                 lowest-rank cost argmin *)
              Problem.optimal_center problem ~window:w ~data
            else
              match Processor_list.choose memory rows.(data) with
              | Some rank -> rank
              | None -> here
          in
          let go = entry data best in
          let move = Problem.distance problem here best in
          let chosen =
            if
              best <> here
              && float_of_int (stay - go) *. theta > float_of_int move
            then best
            else here
          in
          let ok = Pim.Memory.allocate memory chosen in
          assert ok;
          current.(data) <- chosen)
        (Ordering.by_window_references window)
    end;
    Array.iteri
      (fun data rank -> Schedule.set_center schedule ~window:w ~data rank)
      current
  done;
  schedule
