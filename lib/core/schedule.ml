type 'host plan = {
  host : 'host;
  size : int; (* ranks the host offers *)
  n_windows : int;
  n_data : int;
  centers : int array; (* centers.(window * n_data + data) = rank *)
}

type t = Pim.Mesh.t plan

let create_on host ~size ~n_windows ~n_data =
  if n_windows <= 0 then
    invalid_arg "Schedule.create: n_windows must be positive";
  if n_data <= 0 then invalid_arg "Schedule.create: n_data must be positive";
  let centers = Array.make (n_windows * n_data) 0 in
  { host; size; n_windows; n_data; centers }

let create mesh = create_on mesh ~size:(Pim.Mesh.size mesh)

let constant mesh ~n_windows placement =
  let size = Pim.Mesh.size mesh in
  Array.iteri
    (fun d rank ->
      if rank < 0 || rank >= size then
        invalid_arg
          (Printf.sprintf "Schedule.constant: datum %d at invalid rank %d" d
             rank))
    placement;
  let n_data = Array.length placement in
  let t = create mesh ~n_windows ~n_data in
  for w = 0 to n_windows - 1 do
    Array.blit placement 0 t.centers (w * n_data) n_data
  done;
  t

let host t = t.host
let host_size t = t.size
let mesh = host
let n_windows t = t.n_windows
let n_data t = t.n_data

let with_host t host ~size =
  if size <> t.size then
    invalid_arg
      (Printf.sprintf "Schedule.with_host: host has %d ranks, plan has %d"
         size t.size);
  { t with host; centers = Array.copy t.centers }

let check t ~window ~data =
  if window < 0 || window >= n_windows t then
    invalid_arg (Printf.sprintf "Schedule: window %d out of range" window);
  if data < 0 || data >= t.n_data then
    invalid_arg (Printf.sprintf "Schedule: data %d out of range" data)

let center t ~window ~data =
  check t ~window ~data;
  t.centers.((window * t.n_data) + data)

let set_center t ~window ~data rank =
  check t ~window ~data;
  if rank < 0 || rank >= t.size then
    invalid_arg (Printf.sprintf "Schedule.set_center: invalid rank %d" rank);
  t.centers.((window * t.n_data) + data) <- rank

let centers_of_data t ~data =
  check t ~window:0 ~data;
  Array.init (n_windows t) (fun w -> t.centers.((w * t.n_data) + data))

let is_static t ~data =
  let cs = centers_of_data t ~data in
  Array.for_all (fun c -> c = cs.(0)) cs

(* a cell differs from the one a row above it: one migration *)
let moves t =
  let count = ref 0 in
  for i = t.n_data to Array.length t.centers - 1 do
    if t.centers.(i) <> t.centers.(i - t.n_data) then incr count
  done;
  !count

type cost_breakdown = { reference : int; movement : int; total : int }

let check_trace t trace =
  if Reftrace.Trace.n_windows trace <> n_windows t then
    invalid_arg
      (Printf.sprintf "Schedule: trace has %d windows, schedule has %d"
         (Reftrace.Trace.n_windows trace)
         (n_windows t));
  let trace_data = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
  if trace_data <> t.n_data then
    invalid_arg
      (Printf.sprintf "Schedule: trace has %d data, schedule has %d"
         trace_data t.n_data)

let weighted_cost ~distance t trace =
  check_trace t trace;
  let space = Reftrace.Trace.space trace in
  let volume data = Reftrace.Data_space.volume_of space data in
  let n = t.n_data in
  let reference = ref 0 and movement = ref 0 in
  List.iteri
    (fun w window ->
      List.iter
        (fun data ->
          let c = t.centers.((w * n) + data) and v = volume data in
          Reftrace.Window.iter_profile window data (fun ~proc ~count ->
              reference := !reference + (v * count * distance proc c)))
        (Reftrace.Window.referenced_data window);
      if w > 0 then
        for data = 0 to n - 1 do
          let i = (w * n) + data in
          if t.centers.(i) <> t.centers.(i - n) then
            movement :=
              !movement
              + (volume data * distance t.centers.(i - n) t.centers.(i))
        done)
    (Reftrace.Trace.windows trace);
  { reference = !reference; movement = !movement;
    total = !reference + !movement }

let cost t trace = weighted_cost ~distance:(Pim.Mesh.distance t.host) t trace
let total_cost t trace = (cost t trace).total

let window_load t w =
  let load = Array.make t.size 0 in
  for i = w * t.n_data to ((w + 1) * t.n_data) - 1 do
    load.(t.centers.(i)) <- load.(t.centers.(i)) + 1
  done;
  load

let loads t = Array.init (n_windows t) (window_load t)

let check_capacity t ~capacity =
  let violation = ref None in
  (try
     for w = 0 to n_windows t - 1 do
       let load = window_load t w in
       for rank = 0 to t.size - 1 do
         if load.(rank) > capacity then begin
           violation := Some (w, rank, load.(rank));
           raise Exit
         end
       done
     done
   with Exit -> ());
  !violation

let to_rounds ?(prefetch = false) t trace =
  check_trace t trace;
  let space = Reftrace.Trace.space trace in
  let volume data = Reftrace.Data_space.volume_of space data in
  let n = t.n_data in
  (* migration messages feeding window [target] *)
  let migrations_into target =
    if target <= 0 || target >= n_windows t then []
    else begin
      let acc = ref [] in
      for data = n - 1 downto 0 do
        let src = t.centers.(((target - 1) * n) + data)
        and dst = t.centers.((target * n) + data) in
        if src <> dst then
          acc := Pim.Router.message ~src ~dst ~volume:(volume data) :: !acc
      done;
      !acc
    end
  in
  List.mapi
    (fun w window ->
      let migrations =
        if prefetch then migrations_into (w + 1) else migrations_into w
      in
      let references =
        List.concat_map
          (fun data ->
            let src = t.centers.((w * n) + data) in
            List.filter_map
              (fun (proc, count) ->
                if proc = src then None
                else
                  Some
                    (Pim.Router.message ~src ~dst:proc
                       ~volume:(count * volume data)))
              (Reftrace.Window.profile window data))
          (Reftrace.Window.referenced_data window)
      in
      { Pim.Simulator.migrations; references })
    (Reftrace.Trace.windows trace)

let copy t = { t with centers = Array.copy t.centers }
let equal a b = a.n_data = b.n_data && a.centers = b.centers

let pp fmt t =
  Format.fprintf fmt "schedule(%a, %d windows, %d data, %d moves)"
    Pim.Mesh.pp t.host (n_windows t) (n_data t) (moves t)
