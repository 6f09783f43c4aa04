let placement problem =
  Problem.check_feasible problem ~who:"Scds.schedule";
  match Problem.policy problem with
  | Problem.Unbounded ->
      (* Vector-free fast path: with unbounded memories every rank has
         room and [Processor_list.place] would take the row's lowest-rank
         argmin, so each datum's center is the merged window's
         [optimal_center] (the axis minima of its O(cols + rows) row
         under the separable kernel), no memory tracker needed. Per-datum
         and order-free, so it fans out across the pool. *)
      Engine.map ~jobs:(Problem.jobs problem) (Problem.n_data problem)
        (fun data ->
          Problem.optimal_center problem ~window:(Problem.n_windows problem)
            ~data)
  | Problem.Bounded _ ->
      (* parallel phase: one merged-window row per datum *)
      Problem.prefetch_merged problem;
      (* serial phase: heaviest-first allocation, identical at any jobs
         count *)
      let memory = Problem.fresh_memory problem in
      let result = Array.make (Problem.n_data problem) 0 in
      List.iter
        (fun data ->
          result.(data) <-
            Processor_list.place memory
              (Problem.row problem ~window:(Problem.n_windows problem) ~data))
        (Problem.by_total_references problem);
      result

let schedule problem =
  Schedule.constant (Problem.mesh problem)
    ~n_windows:(Problem.n_windows problem)
    (placement problem)

let center_of problem ~data = (placement problem).(data)
