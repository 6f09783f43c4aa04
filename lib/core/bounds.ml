let lower_bound_in problem =
  let space = Problem.space problem in
  (* one independent DP per datum: fan out, merge by index *)
  let costs =
    Engine.map
      ~jobs:(Problem.jobs problem)
      (Problem.n_data problem)
      (fun data ->
        Reftrace.Data_space.volume_of space data
        * fst (Option.get (Problem.solve_datum problem ~data)))
  in
  Array.fold_left ( + ) 0 costs

let static_lower_bound_in problem =
  let space = Problem.space problem in
  let costs =
    Engine.map
      ~jobs:(Problem.jobs problem)
      (Problem.n_data problem)
      (fun data ->
        let v =
          Problem.cost_vector problem ~window:(Problem.n_windows problem) ~data
        in
        Reftrace.Data_space.volume_of space data
        * Array.fold_left min max_int v)
  in
  Array.fold_left ( + ) 0 costs

let gap ~bound ~cost =
  if bound = 0 then 0.
  else float_of_int (cost - bound) /. float_of_int bound *. 100.
