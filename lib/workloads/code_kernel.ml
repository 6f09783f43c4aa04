let xorshift state =
  let x = !state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  state := x land max_int;
  !state

let trace ?(partition = Iteration_space.Block_2d) ?(seed = 0x5EED) ~n mesh =
  if n < 4 then invalid_arg "Code_kernel.trace: n must be at least 4";
  let space = Reftrace.Data_space.matrix "A" n in
  let id row col = Reftrace.Data_space.id space ~array_name:"A" ~row ~col in
  let owner i j =
    Iteration_space.owner partition mesh ~extent_i:n ~extent_j:n ~i ~j
  in
  let state = ref (if seed = 0 then 0x5EED else seed) in
  Reftrace.Trace.generate space @@ fun emit ->
  let wr = Reftrace.Window.Write in
  let t_max = n / 2 in
  for t = 0 to t_max - 1 do
    let front = t * n / t_max in
    let band_hi = min (n - 1) (front + (n / t_max)) in
    (* sweeping front: band rows update themselves, read the front row of
       their column and the transposed element *)
    for i = front to band_hi do
      for j = 0 to n - 1 do
        let p = owner i j in
        emit ~kind:wr t p (id i j);
        emit t p (id front j);
        emit t p (id j i)
      done
    done;
    (* counter-sweeping column gather *)
    let col = (t_max - 1 - t) * n / t_max in
    for i = 0 to n - 1 do
      let p = owner i col in
      emit t p (id i col);
      emit t p (id col i)
    done;
    (* seeded jitter: n irregular references *)
    for _ = 1 to n do
      let i = xorshift state mod n and j = xorshift state mod n in
      let oi = xorshift state mod n and oj = xorshift state mod n in
      emit t (owner oi oj) (id i j)
    done
  done
