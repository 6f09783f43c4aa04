let xorshift state =
  let x = !state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  state := x land max_int;
  !state

let trace ?(partition = Iteration_space.Block_2d) ?(seed = 0xD1CE) ~n ~bins
    mesh =
  if n < 4 then invalid_arg "Reduction.trace: n must be at least 4";
  if bins < 1 then invalid_arg "Reduction.trace: bins must be positive";
  let space =
    Reftrace.Data_space.create
      (Reftrace.Data_space.array_desc "X" ~rows:n ~cols:n)
      [ Reftrace.Data_space.array_desc "H" ~rows:1 ~cols:bins ]
  in
  let x row col = Reftrace.Data_space.id space ~array_name:"X" ~row ~col in
  let h bin = Reftrace.Data_space.id space ~array_name:"H" ~row:0 ~col:bin in
  let owner i j =
    Iteration_space.owner partition mesh ~extent_i:n ~extent_j:n ~i ~j
  in
  let state = ref (if seed = 0 then 0xD1CE else seed) in
  Reftrace.Trace.generate space @@ fun emit ->
  let wr = Reftrace.Window.Write in
  let bands = Pim.Mesh.rows mesh in
  for band = 0 to bands - 1 do
    let lo = band * n / bands and hi = ((band + 1) * n / bands) - 1 in
    for i = lo to hi do
      for j = 0 to n - 1 do
        let p = owner i j in
        emit band p (x i j);
        emit ~kind:wr band p (h (xorshift state mod bins))
      done
    done
  done
