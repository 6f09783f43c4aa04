type t = { rows : int; cols : int; wrap : bool }

let make ~wrap ~rows ~cols =
  if rows <= 0 || cols <= 0 then
    invalid_arg
      (Printf.sprintf "Mesh.create: dimensions must be positive (%dx%d)" rows
         cols);
  { rows; cols; wrap }

let create ~rows ~cols = make ~wrap:false ~rows ~cols
let torus ~rows ~cols = make ~wrap:true ~rows ~cols
let square ?(wrap = false) n = make ~wrap ~rows:n ~cols:n
let rows m = m.rows
let cols m = m.cols
let wraps m = m.wrap
let size m = m.rows * m.cols

let in_bounds m (c : Coord.t) =
  c.x >= 0 && c.x < m.cols && c.y >= 0 && c.y < m.rows

let rank_of_coord m c =
  if not (in_bounds m c) then
    invalid_arg
      (Printf.sprintf "Mesh.rank_of_coord: %s out of bounds for %dx%d mesh"
         (Coord.to_string c) m.rows m.cols);
  (c.y * m.cols) + c.x

let coord_of_rank m r =
  if r < 0 || r >= size m then
    invalid_arg
      (Printf.sprintf "Mesh.coord_of_rank: rank %d out of bounds for %dx%d"
         r m.rows m.cols);
  Coord.make ~x:(r mod m.cols) ~y:(r / m.cols)

let[@inline] axis_hops ~wrap ~extent a b =
  let d = abs (a - b) in
  if wrap && 2 * d > extent then extent - d else d

let distance m a b =
  let n = m.rows * m.cols in
  if a < 0 || a >= n || b < 0 || b >= n then
    invalid_arg
      (Printf.sprintf "Mesh.distance: rank %d out of bounds for %dx%d"
         (if a < 0 || a >= n then a else b)
         m.rows m.cols);
  let c = m.cols in
  let ya = a / c and yb = b / c in
  axis_hops ~wrap:m.wrap ~extent:c (a - (ya * c)) (b - (yb * c))
  + axis_hops ~wrap:m.wrap ~extent:m.rows ya yb

(* Per-axis step towards [target]: +1/-1 on a plain mesh; on a torus, the
   direction of the shorter way round (non-wrapping on ties), applied
   modulo the extent. *)
let axis_step ~wrap ~extent v target =
  let direct = target - v in
  if not wrap then if direct > 0 then v + 1 else v - 1
  else begin
    let forward = (direct + extent) mod extent in
    let backward = extent - forward in
    let shorter_is_forward =
      if forward = backward then direct > 0 else forward < backward
    in
    if shorter_is_forward then (v + 1) mod extent
    else (v - 1 + extent) mod extent
  end

(* Dimension-ordered routing: correct x first, then y, as in the paper's
   x-y routing assumption. *)
let xy_route m ~src ~dst =
  let s = coord_of_rank m src and d = coord_of_rank m dst in
  let rec go (c : Coord.t) acc =
    if c.x <> d.x then
      let x = axis_step ~wrap:m.wrap ~extent:m.cols c.x d.x in
      let c' = Coord.make ~x ~y:c.y in
      go c' (rank_of_coord m c' :: acc)
    else if c.y <> d.y then
      let y = axis_step ~wrap:m.wrap ~extent:m.rows c.y d.y in
      let c' = Coord.make ~x:c.x ~y in
      go c' (rank_of_coord m c' :: acc)
    else List.rev acc
  in
  go s [ src ]

let neighbours m r =
  let c = coord_of_rank m r in
  let wrap_coord (cand : Coord.t) =
    if m.wrap then
      Some
        (Coord.make
           ~x:((cand.x + m.cols) mod m.cols)
           ~y:((cand.y + m.rows) mod m.rows))
    else if in_bounds m cand then Some cand
    else None
  in
  let candidates =
    [
      Coord.make ~x:(c.x - 1) ~y:c.y;
      Coord.make ~x:(c.x + 1) ~y:c.y;
      Coord.make ~x:c.x ~y:(c.y - 1);
      Coord.make ~x:c.x ~y:(c.y + 1);
    ]
  in
  List.filter_map
    (fun cand ->
      match wrap_coord cand with
      | Some c' when not (Coord.equal c' c) -> Some (rank_of_coord m c')
      | Some _ | None -> None)
    candidates
  |> List.sort_uniq Int.compare

let links m =
  let acc = ref [] in
  for r = size m - 1 downto 0 do
    List.iter (fun n -> acc := (r, n) :: !acc) (List.rev (neighbours m r))
  done;
  !acc

let iter_ranks m f =
  for r = 0 to size m - 1 do
    f r
  done

let fold_ranks m ~init ~f =
  let acc = ref init in
  iter_ranks m (fun r -> acc := f !acc r);
  !acc

let ranks m = List.init (size m) Fun.id

let pp fmt m =
  Format.fprintf fmt "%dx%d %s" m.rows m.cols
    (if m.wrap then "torus" else "mesh")
