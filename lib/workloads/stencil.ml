let trace ?(partition = Iteration_space.Block_2d) ~n ~sweeps mesh =
  if n < 3 then invalid_arg "Stencil.trace: n must be at least 3";
  if sweeps < 1 then invalid_arg "Stencil.trace: sweeps must be positive";
  let space = Reftrace.Data_space.matrix "U" n in
  let id row col = Reftrace.Data_space.id space ~array_name:"U" ~row ~col in
  let owner i j =
    Iteration_space.owner partition mesh ~extent_i:n ~extent_j:n ~i ~j
  in
  Reftrace.Trace.generate space @@ fun emit ->
  let wr = Reftrace.Window.Write in
  for t = 0 to sweeps - 1 do
    for i = 1 to n - 2 do
      for j = 1 to n - 2 do
        let p = owner i j in
        emit ~kind:wr t p (id i j);
        emit t p (id (i - 1) j);
        emit t p (id (i + 1) j);
        emit t p (id i (j - 1));
        emit t p (id i (j + 1))
      done
    done
  done
