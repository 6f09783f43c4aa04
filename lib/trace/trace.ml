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

(* One log is open at a time: a reference at a later step seals it into
   a window and opens the next, so the stream itself is never stored. *)
let generate space body =
  let n_data = Data_space.size space in
  let sealed = ref [] and log = ref (Window.Builder.create ~n_data) in
  let started = ref false and current = ref 0 in
  body (fun ?kind step proc data ->
      if not !started then begin
        started := true;
        current := step
      end
      else if step <> !current then begin
        if step < !current then
          invalid_arg
            (Printf.sprintf "Trace.generate: step %d after step %d" step
               !current);
        sealed := Window.Builder.build !log :: !sealed;
        log := Window.Builder.create ~n_data;
        current := step
      end;
      Window.Builder.add ?kind !log ~data ~proc ~count:1);
  if not !started then invalid_arg "Trace.generate: no references";
  create space (List.rev (Window.Builder.build !log :: !sealed))

let pp fmt t =
  Format.fprintf fmt "trace over %a: %d windows, %d references" Data_space.pp
    t.space (n_windows t) (total_references t)
