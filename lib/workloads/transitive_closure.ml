let trace ?(partition = Iteration_space.Block_2d) ~n mesh =
  if n < 1 then invalid_arg "Transitive_closure.trace: n must be at least 1";
  let space = Reftrace.Data_space.matrix "D" n in
  let id row col = Reftrace.Data_space.id space ~array_name:"D" ~row ~col in
  let owner i j =
    Iteration_space.owner partition mesh ~extent_i:n ~extent_j:n ~i ~j
  in
  Reftrace.Trace.generate space @@ fun emit ->
  let wr = Reftrace.Window.Write in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let p = owner i j in
        emit ~kind:wr k p (id i j);
        emit k p (id i k);
        emit k p (id k j)
      done
    done
  done
