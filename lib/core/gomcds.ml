let schedule problem =
  Problem.check_feasible problem ~who:"Gomcds.schedule";
  let n_data = Problem.n_data problem in
  let n_windows = Problem.n_windows problem in
  let schedule =
    Schedule.create (Problem.mesh problem) ~n_windows ~n_data
  in
  (match Problem.policy problem with
  | Problem.Unbounded ->
      (* Every datum's DP is independent: fan the whole solve out across
         the domain pool and merge by datum index. The mesh-shaped DP reads
         each datum's cached rows in place — no full distance matrix, no
         per-window vectors. Problem.solve_datum folds the fault in
         (alive mask, BFS distances). *)
      let centers =
        Engine.map ~jobs:(Problem.jobs problem) n_data (fun data ->
            snd (Option.get (Problem.solve_datum problem ~data)))
      in
      Array.iteri
        (fun data cs ->
          Array.iteri
            (fun w rank -> Schedule.set_center schedule ~window:w ~data rank)
            cs)
        centers
  | Problem.Bounded _ ->
      (* Occupancy evolves datum by datum, so routing is serial — but the
         cost vectors it reads are filled in parallel first. *)
      Problem.prefetch_all problem;
      Obs.Span.with_ ~name:"gomcds.place" @@ fun () ->
      let mems =
        Array.init n_windows (fun _ -> Problem.fresh_memory problem)
      in
      List.iter
        (fun data ->
          let admit layer = Pim.Memory.admit_row mems.(layer) in
          (* Placing data one at a time into capacity c with
             n_data <= c * alive processors means every layer always
             retains a free slot, so a feasible path exists. *)
          let result = Problem.solve_datum problem ~admit ~data in
          let _, centers = Option.get result in
          Array.iteri
            (fun layer rank ->
              let ok = Pim.Memory.allocate mems.(layer) rank in
              assert ok;
              Schedule.set_center schedule ~window:layer ~data rank)
            centers)
        (Problem.by_total_references problem));
  schedule

