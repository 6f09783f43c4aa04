(* The list head with room, without the list: [Memory.admit_row] is the
   free-slot mask (banned ranks included), and the lowest-(cost, rank)
   admitted entry of the row is where a walk of the full sorted list
   would stop. *)
let choose memory row =
  match Pathgraph.Layered.argmin ~admit:(Pim.Memory.admit_row memory) row with
  | -1 -> None
  | rank -> Some rank

let take memory rank =
  let ok = Pim.Memory.allocate memory rank in
  assert ok;
  rank

let place memory row =
  match choose memory row with
  | Some rank -> take memory rank
  | None -> failwith "Processor_list.place: every processor is full"

(* The head with room of the mesh metric's list from [target]: walk the
   distance shells from [floor.(target)], each shell's ranks ascending
   (row by row, at most two columns a row), to the first admitted rank. *)
let place_near memory ~floor ~probes ~target =
  let mesh = Pim.Memory.mesh memory in
  let cols = Pim.Mesh.cols mesh and rows = Pim.Mesh.rows mesh in
  let wrap = Pim.Mesh.wraps mesh in
  let admit = Pim.Memory.admit_row memory in
  let tx = target mod cols and ty = target / cols in
  let reach e = if wrap then e / 2 else e - 1 in
  let reach_x = reach cols in
  let found = ref (-1) and d = ref floor.(target) and read = ref 0 in
  while !found < 0 && !d <= reach_x + reach rows do
    let y = ref (if wrap then 0 else Int.max 0 (ty - !d)) in
    let y_last = if wrap then rows - 1 else Int.min (rows - 1) (ty + !d) in
    while !found < 0 && !y <= y_last do
      let dx = !d - Pim.Mesh.axis_hops ~wrap ~extent:rows ty !y in
      if dx >= 0 && dx <= reach_x then begin
        (* the columns [dx] hops either side of [tx], ascending: one
           when [dx] is 0 or reaches a ring's antipode *)
        let a = tx - dx and b = tx + dx in
        let a = if wrap && a < 0 then a + cols else a
        and b = if wrap && b >= cols then b - cols else b in
        let lo = Int.min a b and hi = Int.max a b and base = !y * cols in
        if lo >= 0 then begin
          incr read;
          if Bytes.get admit (base + lo) <> '\000' then found := base + lo
        end;
        if !found < 0 && hi < cols && hi <> lo then begin
          incr read;
          if Bytes.get admit (base + hi) <> '\000' then found := base + hi
        end
      end;
      incr y
    done;
    if !found < 0 then incr d
  done;
  probes := !probes + !read;
  if !found < 0 then failwith "Processor_list.place: every processor is full";
  floor.(target) <- !d;
  take memory !found
