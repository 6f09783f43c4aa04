exception Unreachable of int * int

(* A fault set is mesh-independent data: sorted dead ranks and sorted
   canonical (lo, hi) dead links. Sets are tiny (a few percent of the
   array), so sorted lists keep the representation simple; hot consumers
   (Problem, [Paths]) precompute dense masks once. *)
type t = { nodes : int list; links : (int * int) list }

let none = { nodes = []; links = [] }
let is_none t = t.nodes = [] && t.links = []

let canon (a, b) = if a <= b then (a, b) else (b, a)

let create ?(dead_nodes = []) ?(dead_links = []) () =
  {
    nodes = List.sort_uniq Int.compare dead_nodes;
    links = List.sort_uniq compare (List.map canon dead_links);
  }

let node_dead t rank = List.mem rank t.nodes
let link_dead t ~src ~dst = List.mem (canon (src, dst)) t.links
let dead_nodes t = t.nodes
let dead_links t = t.links
let n_dead_nodes t = List.length t.nodes
let n_dead_links t = List.length t.links
let has_node_faults t = t.nodes <> []
let has_link_faults t = t.links <> []

let kill_node t rank =
  if node_dead t rank then t
  else { t with nodes = List.sort Int.compare (rank :: t.nodes) }

let kill_nodes t ranks =
  match List.filter (fun r -> not (node_dead t r)) ranks with
  | [] -> t
  | fresh -> { t with nodes = List.sort_uniq Int.compare (fresh @ t.nodes) }

let kill_link t ~src ~dst =
  if link_dead t ~src ~dst then t
  else { t with links = List.sort compare (canon (src, dst) :: t.links) }

let union a b =
  {
    nodes = List.sort_uniq Int.compare (a.nodes @ b.nodes);
    links = List.sort_uniq compare (a.links @ b.links);
  }

let alive_count t mesh = Mesh.size mesh - List.length t.nodes

let validate t mesh =
  let size = Mesh.size mesh in
  List.iter
    (fun r ->
      if r < 0 || r >= size then
        invalid_arg
          (Printf.sprintf "Fault: dead rank %d out of bounds for %s" r
             (Format.asprintf "%a" Mesh.pp mesh)))
    t.nodes;
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= size || b < 0 || b >= size
         || not (List.mem b (Mesh.neighbours mesh a))
      then
        invalid_arg
          (Printf.sprintf "Fault: dead link %d-%d is not a link of %s" a b
             (Format.asprintf "%a" Mesh.pp mesh)))
    t.links

(* Undirected mesh links in canonical ascending order: the draw order
   [inject] commits to, independent of the rates. *)
let canonical_links mesh =
  List.filter (fun (a, b) -> a < b) (Mesh.links mesh)

let inject ~seed ~node_rate ~link_rate mesh =
  if node_rate < 0. || node_rate > 1. then
    invalid_arg "Fault.inject: node_rate must be in [0, 1]";
  if link_rate < 0. || link_rate > 1. then
    invalid_arg "Fault.inject: link_rate must be in [0, 1]";
  let st = Random.State.make [| seed |] in
  let size = Mesh.size mesh in
  (* one draw per rank, then one per link, always in the same order: the
     dead set at a higher rate is a superset of the set at a lower rate *)
  let node_draws = Array.init size (fun _ -> Random.State.float st 1.) in
  let links = canonical_links mesh in
  let link_draws =
    List.map (fun l -> (l, Random.State.float st 1.)) links
  in
  let dead = Array.map (fun d -> d < node_rate) node_draws in
  (* never kill the whole array: resurrect the luckiest rank *)
  if Array.for_all Fun.id dead then begin
    let best = ref 0 in
    Array.iteri (fun r d -> if d > node_draws.(!best) then best := r) node_draws;
    dead.(!best) <- false
  end;
  let nodes = ref [] in
  for r = size - 1 downto 0 do
    if dead.(r) then nodes := r :: !nodes
  done;
  let links =
    List.filter_map
      (fun (l, d) -> if d < link_rate then Some l else None)
      link_draws
  in
  { nodes = !nodes; links }

let pp fmt t =
  Format.fprintf fmt "faults(%d dead nodes%s, %d dead links%s)"
    (List.length t.nodes)
    (match t.nodes with
    | [] -> ""
    | l ->
        Printf.sprintf " [%s]"
          (String.concat ";" (List.map string_of_int l)))
    (List.length t.links)
    (match t.links with
    | [] -> ""
    | l ->
        Printf.sprintf " [%s]"
          (String.concat ";"
             (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) l)))

module Paths = struct
  type fault = t

  type t = {
    mesh : Mesh.t;
    fault : fault;
    healthy : bool; (* no link faults: closed-form answers, no BFS *)
    adjacency : int list array; (* surviving neighbour lists, lazily built *)
    mutable adjacency_ready : bool;
    dist : int array option array; (* dist.(src).(dst); -1 = unreachable *)
    prev : int array option array; (* BFS parent towards src; -1 = none *)
  }

  let create mesh fault =
    validate fault mesh;
    let size = Mesh.size mesh in
    {
      mesh;
      fault;
      healthy = not (has_link_faults fault);
      adjacency = Array.make size [];
      adjacency_ready = false;
      dist = Array.make size None;
      prev = Array.make size None;
    }

  let mesh t = t.mesh
  let fault t = t.fault

  let check t who rank =
    if rank < 0 || rank >= Mesh.size t.mesh then
      invalid_arg
        (Printf.sprintf "Fault.Paths.%s: rank %d out of bounds for %s" who
           rank
           (Format.asprintf "%a" Mesh.pp t.mesh))

  let adjacency t =
    if not t.adjacency_ready then begin
      Mesh.iter_ranks t.mesh (fun r ->
          t.adjacency.(r) <-
            List.filter
              (fun n -> not (link_dead t.fault ~src:r ~dst:n))
              (Mesh.neighbours t.mesh r));
      t.adjacency_ready <- true
    end;
    t.adjacency

  (* One BFS per source, cached. Neighbours expand in ascending-rank order
     (Mesh.neighbours is sorted), so parents — and hence routes — are
     deterministic. *)
  let bfs t src =
    match t.dist.(src) with
    | Some d -> (d, Option.get t.prev.(src))
    | None ->
        if !Obs.enabled then Obs.Metrics.incr "fault.bfs_sources";
        let size = Mesh.size t.mesh in
        let adjacency = adjacency t in
        let dist = Array.make size (-1) in
        let prev = Array.make size (-1) in
        let queue = Queue.create () in
        dist.(src) <- 0;
        Queue.add src queue;
        while not (Queue.is_empty queue) do
          let u = Queue.pop queue in
          List.iter
            (fun v ->
              if dist.(v) < 0 then begin
                dist.(v) <- dist.(u) + 1;
                prev.(v) <- u;
                Queue.add v queue
              end)
            adjacency.(u)
        done;
        t.dist.(src) <- Some dist;
        t.prev.(src) <- Some prev;
        (dist, prev)

  let distance t ~src ~dst =
    check t "distance" src;
    check t "distance" dst;
    if t.healthy then Some (Mesh.distance t.mesh src dst)
    else
      let dist, _ = bfs t src in
      if dist.(dst) < 0 then None else Some dist.(dst)

  let distance_exn t ~src ~dst =
    match distance t ~src ~dst with
    | Some d -> d
    | None -> raise (Unreachable (src, dst))

  let route t ~src ~dst =
    check t "route" src;
    check t "route" dst;
    if t.healthy then Some (Mesh.xy_route t.mesh ~src ~dst)
    else
      let dist, prev = bfs t src in
      if dist.(dst) < 0 then None
      else begin
        let rec walk acc v =
          if v = src then src :: acc else walk (v :: acc) prev.(v)
        in
        Some (walk [] dst)
      end
end
