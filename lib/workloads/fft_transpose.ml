let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
  go 0 n

let trace ?(partition = Iteration_space.Block_2d) ~n mesh =
  if n < 2 || not (is_power_of_two n) then
    invalid_arg "Fft_transpose.trace: n must be a power of two >= 2";
  let space = Reftrace.Data_space.matrix "X" n in
  let id row col = Reftrace.Data_space.id space ~array_name:"X" ~row ~col in
  let owner i j =
    Iteration_space.owner partition mesh ~extent_i:n ~extent_j:n ~i ~j
  in
  Reftrace.Trace.generate space @@ fun emit ->
  let wr = Reftrace.Window.Write in
  let stages = log2 n in
  let row_ffts step =
    (* each element of a row participates in [log n] butterflies, executed
       by the owner of its position *)
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let p = owner i j in
        for _ = 1 to stages do
          emit ~kind:wr step p (id i j)
        done
      done
    done
  in
  row_ffts 0;
  (* transpose: the owner of (i, j) reads X(j, i) and writes X(i, j) *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let p = owner i j in
      emit 1 p (id j i);
      emit ~kind:wr 1 p (id i j)
    done
  done;
  row_ffts 2
