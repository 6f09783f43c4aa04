let trace ?(partition = Iteration_space.Block_2d) ?diags_per_window ~n mesh =
  if n < 3 then invalid_arg "Wavefront.trace: n must be at least 3";
  let band =
    match diags_per_window with
    | Some d when d < 1 ->
        invalid_arg "Wavefront.trace: diags_per_window must be positive"
    | Some d -> d
    | None -> max 1 (n / 4)
  in
  let space = Reftrace.Data_space.matrix "U" n in
  let id row col = Reftrace.Data_space.id space ~array_name:"U" ~row ~col in
  let owner i j =
    Iteration_space.owner partition mesh ~extent_i:n ~extent_j:n ~i ~j
  in
  Reftrace.Trace.generate space @@ fun emit ->
  let wr = Reftrace.Window.Write in
  (* anti-diagonal d holds cells with i + j = d; interior cells only *)
  for d = 2 to (2 * (n - 2)) do
    let step = (d - 2) / band in
    for i = max 1 (d - (n - 2)) to min (n - 2) (d - 1) do
      let j = d - i in
      if j >= 1 && j <= n - 2 then begin
        let p = owner i j in
        emit ~kind:wr step p (id i j);
        emit step p (id (i - 1) j);
        emit step p (id i (j - 1));
        emit step p (id (i + 1) j);
        emit step p (id i (j + 1))
      end
    done
  done
