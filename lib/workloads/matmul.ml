let trace ?(partition = Iteration_space.Block_2d) ~n mesh =
  if n < 1 then invalid_arg "Matmul.trace: n must be at least 1";
  let space =
    Reftrace.Data_space.create
      (Reftrace.Data_space.array_desc "A" ~rows:n ~cols:n)
      [ Reftrace.Data_space.array_desc "C" ~rows:n ~cols:n ]
  in
  let a row col = Reftrace.Data_space.id space ~array_name:"A" ~row ~col in
  let c row col = Reftrace.Data_space.id space ~array_name:"C" ~row ~col in
  let owner i j =
    Iteration_space.owner partition mesh ~extent_i:n ~extent_j:n ~i ~j
  in
  Reftrace.Trace.generate space @@ fun emit ->
  let wr = Reftrace.Window.Write in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let p = owner i j in
        emit k p (a i k);
        emit k p (a k j);
        emit ~kind:wr k p (c i j)
      done
    done
  done
