type t = {
  members : Pim.Mesh.t array;
  inter : Pim.Mesh.t;
  inter_cost : int;
  bases : int array; (* length n_members + 1; bases.(n) = total size *)
  owner : int array; (* global rank -> member index *)
}

let create ?(inter_cost = 10) ~inter members =
  let n = Array.length members in
  if n <> Pim.Mesh.size inter then
    invalid_arg
      (Printf.sprintf
         "Array_group: %d members do not fit a %dx%d interconnect" n
         (Pim.Mesh.rows inter) (Pim.Mesh.cols inter));
  if inter_cost < 1 then
    invalid_arg "Array_group: inter_cost must be >= 1";
  (* the layered DP packs a move beside its ranks only up to the BFS
     ceiling, so the dearest move may not pass it (nor overflow) *)
  let hops = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      hops := max !hops (Pim.Mesh.distance inter i j)
    done
  done;
  if !hops > 0 && inter_cost > Sched.Problem.unreachable_cost / !hops then
    invalid_arg
      (Printf.sprintf
         "Array_group: inter_cost %d prices a %d-hop move above %d" inter_cost
         !hops Sched.Problem.unreachable_cost);
  let bases = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    bases.(i + 1) <- bases.(i) + Pim.Mesh.size members.(i)
  done;
  let owner = Array.make bases.(n) 0 in
  for i = 0 to n - 1 do
    Array.fill owner bases.(i) (Pim.Mesh.size members.(i)) i
  done;
  { members = Array.copy members; inter; inter_cost; bases; owner }

let line ?inter_cost members =
  if members = [] then invalid_arg "Array_group: no members";
  let members = Array.of_list members in
  create ?inter_cost
    ~inter:(Pim.Mesh.create ~rows:1 ~cols:(Array.length members))
    members

let n_members t = Array.length t.members
let member t i = t.members.(i)
let members t = Array.copy t.members
let inter t = t.inter
let inter_cost t = t.inter_cost
let size t = t.bases.(Array.length t.members)
let base t i = t.bases.(i)

let member_of_rank t g =
  if g < 0 || g >= size t then
    invalid_arg
      (Printf.sprintf "Array_group: global rank %d out of bounds (size %d)" g
         (size t));
  t.owner.(g)

let local_of_rank t g =
  let m = member_of_rank t g in
  (m, g - t.bases.(m))

let global_rank t ~member:m r =
  if m < 0 || m >= n_members t then
    invalid_arg (Printf.sprintf "Array_group: no member %d" m);
  if r < 0 || r >= Pim.Mesh.size t.members.(m) then
    invalid_arg
      (Printf.sprintf "Array_group: local rank %d out of bounds for member %d"
         r m);
  t.bases.(m) + r

let array_distance t i j = Pim.Mesh.distance t.inter i j

let move_cost t i j =
  if i = j then 0 else t.inter_cost * Pim.Mesh.distance t.inter i j

let distance t a b =
  let ma, la = local_of_rank t a and mb, lb = local_of_rank t b in
  if ma = mb then Pim.Mesh.distance t.members.(ma) la lb
  else move_cost t ma mb

let degenerate t = if n_members t = 1 then Some t.members.(0) else None

let validate_trace t trace =
  let sz = size t in
  List.iteri
    (fun w win ->
      let mp = Reftrace.Window.max_proc win in
      if mp >= sz then
        invalid_arg
          (Printf.sprintf
             "Array_group: window %d references rank %d outside the group \
              (size %d)"
             w mp sz))
    (Reftrace.Trace.windows trace)

let mesh_equal a b =
  Pim.Mesh.rows a = Pim.Mesh.rows b
  && Pim.Mesh.cols a = Pim.Mesh.cols b
  && Pim.Mesh.wraps a = Pim.Mesh.wraps b

let equal a b =
  n_members a = n_members b
  && a.inter_cost = b.inter_cost
  && mesh_equal a.inter b.inter
  && Array.for_all2 mesh_equal a.members b.members

(* --- spec grammar ------------------------------------------------- *)

let parse_dims who s =
  match String.split_on_char 'x' (String.lowercase_ascii (String.trim s)) with
  | [ r; c ] -> (
      match (int_of_string_opt r, int_of_string_opt c) with
      | Some r, Some c when r > 0 && c > 0 -> (r, c)
      | _ -> invalid_arg (Printf.sprintf "%s: bad dimensions %S" who s))
  | _ -> invalid_arg (Printf.sprintf "%s: bad dimensions %S" who s)

let of_spec ?inter_cost ?(torus = false) spec =
  let who = "Array_group.of_spec" in
  let mk (rows, cols) =
    if torus then Pim.Mesh.torus ~rows ~cols else Pim.Mesh.create ~rows ~cols
  in
  let spec = String.trim spec in
  (* first occurrence of the literal "of" splits grid specs like
     "2x2of8x8"; dimension strings never contain letters, so a match is
     unambiguous *)
  let split_on_of s =
    let n = String.length s in
    let rec find i =
      if i + 2 > n then None
      else if s.[i] = 'o' && i + 1 < n && s.[i + 1] = 'f' then
        Some (String.sub s 0 i, String.sub s (i + 2) (n - i - 2))
      else find (i + 1)
    in
    find 0
  in
  match split_on_of spec with
  | Some (lhs, rhs) ->
      let irows, icols = parse_dims who lhs in
      let dims = parse_dims who rhs in
      create ?inter_cost
        ~inter:(Pim.Mesh.create ~rows:irows ~cols:icols)
        (Array.init (irows * icols) (fun _ -> mk dims))
  | None ->
      let members =
        List.map (fun s -> mk (parse_dims who s))
          (String.split_on_char ',' spec)
      in
      line ?inter_cost members

(* --- virtual embedding -------------------------------------------- *)

(* Tile the members onto the interconnect grid: grid column [ic] is as
   wide as its widest member, grid row [ir] as tall as its tallest, so a
   homogeneous grid embeds exactly and a heterogeneous line gets one tile
   per member. Coordinates past a smaller member's edge clamp to its last
   row/column when mapped back. *)
let tiling t =
  let irows = Pim.Mesh.rows t.inter and icols = Pim.Mesh.cols t.inter in
  let col_w = Array.make icols 0 and row_h = Array.make irows 0 in
  Array.iteri
    (fun m mesh ->
      let iy = m / icols and ix = m mod icols in
      col_w.(ix) <- max col_w.(ix) (Pim.Mesh.cols mesh);
      row_h.(iy) <- max row_h.(iy) (Pim.Mesh.rows mesh))
    t.members;
  let col_off = Array.make (icols + 1) 0 and row_off = Array.make (irows + 1) 0 in
  for ix = 0 to icols - 1 do
    col_off.(ix + 1) <- col_off.(ix) + col_w.(ix)
  done;
  for iy = 0 to irows - 1 do
    row_off.(iy + 1) <- row_off.(iy) + row_h.(iy)
  done;
  (col_off, row_off)

let virtual_mesh t =
  match degenerate t with
  | Some m -> m
  | None ->
      let col_off, row_off = tiling t in
      Pim.Mesh.create
        ~rows:row_off.(Array.length row_off - 1)
        ~cols:col_off.(Array.length col_off - 1)

let of_virtual_rank t r =
  match degenerate t with
  | Some _ -> r
  | None ->
      let col_off, row_off = tiling t in
      let icols = Pim.Mesh.cols t.inter in
      let vcols = col_off.(Array.length col_off - 1) in
      let vy = r / vcols and vx = r mod vcols in
      let find off v =
        let i = ref 0 in
        while off.(!i + 1) <= v do
          incr i
        done;
        !i
      in
      let iy = find row_off vy and ix = find col_off vx in
      let m = (iy * icols) + ix in
      let mesh = t.members.(m) in
      let ly = min (vy - row_off.(iy)) (Pim.Mesh.rows mesh - 1) in
      let lx = min (vx - col_off.(ix)) (Pim.Mesh.cols mesh - 1) in
      t.bases.(m) + (ly * Pim.Mesh.cols mesh) + lx

let remap_virtual_trace t trace =
  match degenerate t with
  | Some _ -> trace
  | None ->
      let space = Reftrace.Trace.space trace in
      let n_data = Reftrace.Data_space.size space in
      let remap win =
        let out = Reftrace.Window.Builder.create ~n_data in
        for d = 0 to n_data - 1 do
          List.iter
            (fun kind ->
              Reftrace.Window.iter_kind_profile ~kind win d
                (fun ~proc ~count ->
                  Reftrace.Window.Builder.add ~kind out ~data:d
                    ~proc:(of_virtual_rank t proc) ~count))
            [ Reftrace.Window.Read; Reftrace.Window.Write ]
        done;
        Reftrace.Window.Builder.build out
      in
      Reftrace.Trace.create space
        (List.map remap (Reftrace.Trace.windows trace))

let pp fmt t =
  let dims m =
    Printf.sprintf "%d%sx%d" (Pim.Mesh.rows m)
      (if Pim.Mesh.wraps m then "t" else "")
      (Pim.Mesh.cols m)
  in
  Format.fprintf fmt "group[%s; inter %dx%d cost %d]"
    (String.concat ", " (Array.to_list (Array.map dims t.members)))
    (Pim.Mesh.rows t.inter) (Pim.Mesh.cols t.inter) t.inter_cost
