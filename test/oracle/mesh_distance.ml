(* The mesh metric worked out from coordinates, independently of
   [Pim.Mesh.distance]: decode both ranks with [Pim.Mesh.coord_of_rank]
   and add, per axis, the hops of the shorter of the two walks between
   them (one walk on a line; forward or backward on a ring). The dense
   tables below are built from it for the oracles that price moves
   through a table; no scheduling path reads one. *)

let axis ~wrap ~extent a b =
  if not wrap then abs (a - b)
  else begin
    let forward = (((b - a) mod extent) + extent) mod extent in
    let backward = (extent - forward) mod extent in
    min forward backward
  end

let distance m a b =
  let ca = Pim.Mesh.coord_of_rank m a and cb = Pim.Mesh.coord_of_rank m b in
  let wrap = Pim.Mesh.wraps m in
  axis ~wrap ~extent:(Pim.Mesh.cols m) ca.Pim.Coord.x cb.Pim.Coord.x
  + axis ~wrap ~extent:(Pim.Mesh.rows m) ca.Pim.Coord.y cb.Pim.Coord.y

let square n f = Array.init n (fun a -> Array.init n (fun b -> f a b))

(* Per-axis tables: [(x_table m).(a).(b)] is the distance between
   columns [a] and [b], [(y_table m)] the same for rows. *)
let x_table m =
  let extent = Pim.Mesh.cols m in
  square extent (axis ~wrap:(Pim.Mesh.wraps m) ~extent)

let y_table m =
  let extent = Pim.Mesh.rows m in
  square extent (axis ~wrap:(Pim.Mesh.wraps m) ~extent)

(* The full rank-to-rank matrix, [size m]² words. *)
let table m = square (Pim.Mesh.size m) (distance m)
