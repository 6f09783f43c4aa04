type event = { step : int; proc : int; data : int; kind : Window.kind }

let event ?(kind = Window.Read) ~step ~proc ~data () =
  { step; proc; data; kind }
type t = {
  space : Data_space.t;
  windows : Window.t array;
  (* whole-execution window, computed on first demand; merging is a
     commutative sum per (datum, rank), so window order never matters *)
  mutable merged_memo : Window.t option;
}

let create space windows =
  let n = Data_space.size space in
  if windows = [] then invalid_arg "Trace.create: no windows";
  List.iter
    (fun w ->
      if Window.n_data w <> n then
        invalid_arg
          (Printf.sprintf
             "Trace.create: window over %d data, space has %d elements"
             (Window.n_data w) n))
    windows;
  { space; windows = Array.of_list windows; merged_memo = None }

let space t = t.space
let n_windows t = Array.length t.windows

let window t i =
  if i < 0 || i >= Array.length t.windows then
    invalid_arg (Printf.sprintf "Trace.window: index %d out of range" i);
  t.windows.(i)

let windows t = Array.to_list t.windows

let total_references t =
  Array.fold_left (fun acc w -> acc + Window.total_references w) 0 t.windows

let merged t =
  match t.merged_memo with
  | Some w -> w
  | None ->
      let w = Window.merge_list (windows t) in
      t.merged_memo <- Some w;
      w

let remap_window ~n_data ~translate w =
  let out = Window.Builder.create ~n_data in
  List.iter
    (fun data ->
      List.iter
        (fun kind ->
          Window.iter_kind_profile ~kind w data (fun ~proc ~count ->
              Window.Builder.add out ~kind ~data:(translate data) ~proc
                ~count))
        [ Window.Read; Window.Write ])
    (Window.referenced_data w);
  Window.Builder.build out

let append a b =
  let merged_space, translate = Data_space.concat a.space b.space in
  let n_data = Data_space.size merged_space in
  let keep = remap_window ~n_data ~translate:Fun.id in
  let move = remap_window ~n_data ~translate in
  let ws =
    List.map keep (windows a) @ List.map move (windows b)
  in
  create merged_space ws

let reversed t =
  {
    t with
    windows = Array.of_list (List.rev (windows t));
    merged_memo = None;
  }

let drop_empty_windows t =
  match List.filter (fun w -> not (Window.is_empty w)) (windows t) with
  | [] -> { t with windows = [| t.windows.(0) |]; merged_memo = None }
  | ws -> { t with windows = Array.of_list ws; merged_memo = None }

let pp fmt t =
  Format.fprintf fmt "trace over %a: %d windows, %d references" Data_space.pp
    t.space (n_windows t) (total_references t)
