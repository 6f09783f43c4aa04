type message = { src : int; dst : int; volume : int }

let message ~src ~dst ~volume =
  if volume < 0 then invalid_arg "Router.message: negative volume";
  { src; dst; volume }

(* Ranks are validated at routing time (a message does not know its mesh):
   an out-of-range endpoint used to walk off the grid or crash deep in
   Mesh; now it is a typed error at the routing entry points. *)
let check_ranks who mesh { src; dst; _ } =
  let size = Mesh.size mesh in
  if src < 0 || src >= size then
    invalid_arg
      (Printf.sprintf "Router.%s: src rank %d out of [0, %d)" who src size);
  if dst < 0 || dst >= size then
    invalid_arg
      (Printf.sprintf "Router.%s: dst rank %d out of [0, %d)" who dst size)

let cost ?paths mesh ({ src; dst; volume } as msg) =
  check_ranks "cost" mesh msg;
  match paths with
  | None -> volume * Mesh.distance mesh src dst
  | Some o -> volume * Fault.Paths.distance_exn o ~src ~dst

let path_of ?paths mesh msg =
  match paths with
  | None -> Mesh.xy_route mesh ~src:msg.src ~dst:msg.dst
  | Some o -> (
      match Fault.Paths.route o ~src:msg.src ~dst:msg.dst with
      | Some path -> path
      | None -> raise (Fault.Unreachable (msg.src, msg.dst)))

let route ?paths mesh stats msg =
  check_ranks "route" mesh msg;
  let path = path_of ?paths mesh msg in
  let rec walk hops = function
    | a :: (b :: _ as rest) ->
        Link_stats.record stats ~src:a ~dst:b ~volume:msg.volume;
        walk (hops + 1) rest
    | [ _ ] | [] -> hops
  in
  let hops = walk 0 path in
  if !Obs.enabled then begin
    Obs.Metrics.incr "router.messages";
    Obs.Metrics.observe "router.hops" hops;
    Obs.Metrics.add "router.volume_hops" (hops * msg.volume);
    if paths <> None then begin
      let detour = hops - Mesh.distance mesh msg.src msg.dst in
      if detour > 0 then begin
        Obs.Metrics.incr "router.reroutes";
        Obs.Metrics.add "router.reroute_hops" detour
      end
    end
  end;
  hops * msg.volume

let route_all ?paths mesh stats msgs =
  List.fold_left (fun acc m -> acc + route ?paths mesh stats m) 0 msgs

let pp_message fmt { src; dst; volume } =
  Format.fprintf fmt "%d->%d x%d" src dst volume
