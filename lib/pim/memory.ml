type t = {
  mesh : Mesh.t;
  capacity : int option;
  used : int array; (* occupied slot count per rank *)
  dead : bool array; (* banned ranks hold nothing, even unbounded *)
  row : Bytes.t; (* row.[rank] <> '\000' iff rank has a free slot *)
}

let create mesh ~capacity =
  if capacity < 0 then
    invalid_arg (Printf.sprintf "Memory.create: negative capacity %d" capacity);
  {
    mesh;
    capacity = Some capacity;
    used = Array.make (Mesh.size mesh) 0;
    dead = Array.make (Mesh.size mesh) false;
    row = Bytes.make (Mesh.size mesh) (if capacity > 0 then '\001' else '\000');
  }

let unbounded mesh =
  {
    mesh;
    capacity = None;
    used = Array.make (Mesh.size mesh) 0;
    dead = Array.make (Mesh.size mesh) false;
    row = Bytes.make (Mesh.size mesh) '\001';
  }

let capacity_for ~data_count ~mesh ~headroom =
  if data_count <= 0 then
    invalid_arg "Memory.capacity_for: data_count must be positive";
  if headroom <= 0 then
    invalid_arg "Memory.capacity_for: headroom must be positive";
  let p = Mesh.size mesh in
  headroom * ((data_count + p - 1) / p)

let mesh t = t.mesh
let capacity t = t.capacity

let check_rank t rank =
  if rank < 0 || rank >= Array.length t.used then
    invalid_arg (Printf.sprintf "Memory: rank %d out of bounds" rank)

let used t rank =
  check_rank t rank;
  t.used.(rank)

let free t rank =
  check_rank t rank;
  if t.dead.(rank) then 0
  else
    match t.capacity with
    | None -> max_int
    | Some c -> c - t.used.(rank)

let is_full t rank = free t rank <= 0

(* Bring [rank]'s admit-row byte in step after any change to it. *)
let sync t rank =
  Bytes.set t.row rank (if is_full t rank then '\000' else '\001')

let ban t rank =
  check_rank t rank;
  t.dead.(rank) <- true;
  sync t rank

let banned t rank =
  check_rank t rank;
  t.dead.(rank)

let allocate t rank =
  check_rank t rank;
  if is_full t rank then false
  else begin
    t.used.(rank) <- t.used.(rank) + 1;
    sync t rank;
    true
  end

let release t rank =
  check_rank t rank;
  if t.used.(rank) = 0 then
    invalid_arg (Printf.sprintf "Memory.release: rank %d already empty" rank);
  t.used.(rank) <- t.used.(rank) - 1;
  sync t rank

let reset t =
  Array.fill t.used 0 (Array.length t.used) 0;
  Array.iteri (fun rank _ -> sync t rank) t.used

let copy t =
  {
    t with
    used = Array.copy t.used;
    dead = Array.copy t.dead;
    row = Bytes.copy t.row;
  }

let admit_row t = t.row
let total_used t = Array.fold_left ( + ) 0 t.used

let pp fmt t =
  let cap =
    match t.capacity with None -> "inf" | Some c -> string_of_int c
  in
  Format.fprintf fmt "memory(%a, cap=%s, used=%d)" Mesh.pp t.mesh cap
    (total_used t)
