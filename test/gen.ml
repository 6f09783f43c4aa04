(* Shared deterministic builders and QCheck generators for the test suite. *)

let mesh44 = Pim.Mesh.square 4
let mesh22 = Pim.Mesh.square 2

(* [window ~n_data specs] builds a window from [(data, proc, count)]
   triples. *)
let window ~n_data specs =
  let w = Reftrace.Window.create ~n_data in
  List.iter
    (fun (data, proc, count) -> Reftrace.Window.add w ~data ~proc ~count)
    specs;
  w

(* [trace mesh ~n_data window_specs] builds a trace; each element of
   [window_specs] is a [(data, proc, count)] list. *)
let trace _mesh ~n_data window_specs =
  let space =
    Reftrace.Data_space.create
      (Reftrace.Data_space.array_desc "A" ~rows:1 ~cols:n_data)
      []
  in
  Reftrace.Trace.create space (List.map (window ~n_data) window_specs)

(* QCheck generator for a random trace on [mesh]: every window references at
   least one datum so traces are never degenerate. *)
let trace_gen ?(mesh = mesh44) ~max_data ~max_windows ~max_count () =
  let open QCheck.Gen in
  let m = Pim.Mesh.size mesh in
  int_range 1 max_data >>= fun n_data ->
  int_range 1 max_windows >>= fun n_windows ->
  let ref_gen =
    triple (int_range 0 (n_data - 1)) (int_range 0 (m - 1))
      (int_range 1 max_count)
  in
  let window_gen =
    int_range 1 (2 * m) >>= fun n_refs -> list_size (return n_refs) ref_gen
  in
  list_size (return n_windows) window_gen >>= fun specs ->
  return (trace mesh ~n_data specs)

let trace_print t = Format.asprintf "%a" Reftrace.Trace.pp t

let trace_arbitrary ?mesh ~max_data ~max_windows ~max_count () =
  QCheck.make ~print:trace_print
    (trace_gen ?mesh ~max_data ~max_windows ~max_count ())

(* A window generator over a fixed mesh and single datum, for the theorem
   properties. *)
let single_datum_window_gen ?(mesh = mesh44) ~max_count () =
  let open QCheck.Gen in
  let m = Pim.Mesh.size mesh in
  int_range 1 (2 * m) >>= fun n_refs ->
  list_size (return n_refs)
    (pair (int_range 0 (m - 1)) (int_range 1 max_count))
  >>= fun refs ->
  return (window ~n_data:1 (List.map (fun (p, c) -> (0, p, c)) refs))

let window_print w = Format.asprintf "%a" Reftrace.Window.pp w

let single_datum_window_arbitrary ?mesh ~max_count () =
  QCheck.make ~print:window_print (single_datum_window_gen ?mesh ~max_count ())

let to_alcotest = QCheck_alcotest.to_alcotest

(* Shorthand for a plain unit test case. *)
let case name f = Alcotest.test_case name `Quick f

(* The two forms of one flat per-(layer, node) mask, [mask.(layer·width
   + g)]: the closure the oracles take and the admit rows
   [Pathgraph.Layered.solve] takes. *)
let allowed_of_mask ~width mask ~layer g = mask.((layer * width) + g)

let admit_of_mask ~width mask layer =
  Bytes.init width (fun g ->
      if mask.((layer * width) + g) then '\001' else '\000')

(* A session on [mesh] whose processors hold [capacity] data each. *)
let bounded capacity mesh trace =
  Sched.Problem.create ~policy:(Sched.Problem.Bounded capacity) mesh trace

(* [coarsen k t] merges every [k] consecutive windows of [t] into one (the
   last group may be shorter): the window-granularity ablation's coarser
   traces. *)
let coarsen k t =
  let n = Reftrace.Trace.n_windows t in
  Reftrace.Trace.create (Reftrace.Trace.space t)
    (List.init
       ((n + k - 1) / k)
       (fun g ->
         Reftrace.Window.merge_list
           (List.init
              (min k (n - (g * k)))
              (fun i -> Reftrace.Trace.window t ((g * k) + i)))))
