let trace ?(partition = Iteration_space.Block_2d) ~n mesh =
  if n < 2 then invalid_arg "Cholesky.trace: n must be at least 2";
  let space = Reftrace.Data_space.matrix "A" n in
  let id row col = Reftrace.Data_space.id space ~array_name:"A" ~row ~col in
  let owner i j =
    Iteration_space.owner partition mesh ~extent_i:n ~extent_j:n ~i ~j
  in
  Reftrace.Trace.generate space @@ fun emit ->
  let wr = Reftrace.Window.Write in
  for k = 0 to n - 2 do
    (* column scaling below the pivot: a(i,k) /= sqrt(a(k,k)) *)
    for i = k + 1 to n - 1 do
      let p = owner i k in
      emit ~kind:wr k p (id i k);
      emit k p (id k k)
    done;
    (* lower-triangular trailing update: a(i,j) -= a(i,k) * a(j,k) *)
    for i = k + 1 to n - 1 do
      for j = k + 1 to i do
        let p = owner i j in
        emit ~kind:wr k p (id i j);
        emit k p (id i k);
        emit k p (id j k)
      done
    done
  done
