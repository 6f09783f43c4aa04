(* List-based window cutting: every policy sorts the distinct steps of a
   materialized event list and replays the list into one
   [Reftrace.Window.Builder] per window. [per_step] is the reference
   [Reftrace.Trace.generate] is checked against; [fixed], [by] and
   [adaptive] are the other window policies the tests study. *)

module Window = Reftrace.Window

let distinct_steps events =
  List.map (fun (e : Trace.event) -> e.step) events
  |> List.sort_uniq Int.compare

let build space events ~index_of_step =
  if events = [] then invalid_arg "Window_builder: empty event list";
  let n_data = Reftrace.Data_space.size space in
  let n_windows =
    List.fold_left
      (fun acc (e : Trace.event) ->
        let i = index_of_step e.step in
        if i < 0 then
          invalid_arg "Window_builder: negative window index computed";
        max acc (i + 1))
      0 events
  in
  let logs = Array.init n_windows (fun _ -> Window.Builder.create ~n_data) in
  List.iter
    (fun (e : Trace.event) ->
      Window.Builder.add logs.(index_of_step e.step) ~kind:e.kind ~data:e.data
        ~proc:e.proc ~count:1)
    events;
  Reftrace.Trace.create space
    (Array.to_list (Array.map Window.Builder.build logs))
  |> Trace.drop_empty_windows

let per_step space events =
  let steps = distinct_steps events in
  let index = Hashtbl.create 64 in
  List.iteri (fun i s -> Hashtbl.add index s i) steps;
  build space events ~index_of_step:(Hashtbl.find index)

let fixed ~steps_per_window space events =
  if steps_per_window <= 0 then
    invalid_arg "Window_builder.fixed: steps_per_window must be positive";
  let steps = distinct_steps events in
  let index = Hashtbl.create 64 in
  List.iteri (fun i s -> Hashtbl.add index s (i / steps_per_window)) steps;
  build space events ~index_of_step:(Hashtbl.find index)

let by ~window_of_step space events =
  build space events ~index_of_step:window_of_step

(* Per-step processor-activity histogram, normalized to frequencies. *)
let step_histograms events =
  let steps = distinct_steps events in
  let index = Hashtbl.create 64 in
  List.iteri (fun i s -> Hashtbl.add index s i) steps;
  let n_procs =
    1 + List.fold_left (fun acc (e : Trace.event) -> max acc e.proc) 0 events
  in
  let histos = Array.make_matrix (List.length steps) n_procs 0. in
  List.iter
    (fun (e : Trace.event) ->
      let i = Hashtbl.find index e.step in
      histos.(i).(e.proc) <- histos.(i).(e.proc) +. 1.)
    events;
  let normalize h =
    let total = Array.fold_left ( +. ) 0. h in
    if total > 0. then Array.map (fun x -> x /. total) h else h
  in
  (steps, Array.map normalize histos)

(* Total variation is 1/2 the L1 distance of two frequency vectors, so it
   lies in [0, 1] — but the frequencies are quotients of event counts and
   rounding can push the sum a few ulps past 1, which would make even
   [threshold = 1.] split. Clamp to the mathematical range. *)
let total_variation p q =
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. abs_float (x -. q.(i))) p;
  Float.min 1. (0.5 *. !acc)

let adaptive ?(threshold = 0.25) space events =
  if threshold < 0. || threshold > 1. then
    invalid_arg "Window_builder.adaptive: threshold must be in [0, 1]";
  if events = [] then invalid_arg "Window_builder: empty event list";
  let steps, histos = step_histograms events in
  let n_procs = Array.length histos.(0) in
  (* running average of the current window's histograms *)
  let avg = Array.make n_procs 0. in
  let members = ref 0 in
  let assignment = Hashtbl.create 64 in
  let current = ref 0 in
  let reset_avg h =
    Array.blit h 0 avg 0 n_procs;
    members := 1
  in
  let absorb h =
    let n = float_of_int !members in
    Array.iteri (fun i x -> avg.(i) <- ((avg.(i) *. n) +. x) /. (n +. 1.)) h;
    incr members
  in
  List.iteri
    (fun i step ->
      if i = 0 then reset_avg histos.(0)
      else if total_variation avg histos.(i) > threshold then begin
        incr current;
        reset_avg histos.(i)
      end
      else absorb histos.(i);
      Hashtbl.add assignment step !current)
    steps;
  build space events ~index_of_step:(Hashtbl.find assignment)

let events_of_trace t =
  let out = ref [] in
  List.iteri
    (fun step w ->
      List.iter
        (fun data ->
          let emit kind (proc, count) =
            for _ = 1 to count do
              out := Trace.event ~kind ~step ~proc ~data () :: !out
            done
          in
          List.iter (emit Window.Read) (Window.read_profile w data);
          List.iter (emit Window.Write) (Window.write_profile w data))
        (Window.referenced_data w))
    (Reftrace.Trace.windows t);
  List.rev !out
