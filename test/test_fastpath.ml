(* Differential harness for the row-store / argmin / mesh-shaped DP fast
   paths: every rewritten layer is pinned byte-identical to the surviving
   oracle it replaced.

   - session rows (the merged window's included) vs per-array
     [Oracle.Cost_naive] builds, healthy and faulted;
   - [Cost.argmin_of_marginals] vs the full-vector ascending argmin, on
     meshes and tori (circular prefix sums);
   - [Layered.solve] on [Axes] and [Table] blocks vs the full-table dense
     DP ([Oracle.Layered.solve_dense(_filtered)]), on full and
     axis-sum rows;
   - the [Problem.t]-ported [Annealing]/[Online] vs verbatim copies of
     their pre-port standalone implementations, at fixed seeds, serial
     and at jobs = 4;
   - [Window.merge]'s direct row summation vs replaying every reference,
     and a context's merged window vs the hashtable [Oracle.Window]. *)

let torus44 = Pim.Mesh.torus ~rows:4 ~cols:4
let torus35 = Pim.Mesh.torus ~rows:3 ~cols:5

(* one mesh and one torus, even and odd extents *)
let meshes = [ Gen.mesh44; torus35 ]

let problem_of ?policy ?(jobs = 1) mesh trace =
  Sched.Problem.create ?policy ~jobs mesh trace

(* The production DP on one [Axes] block of [mesh]'s shape — the shape
   the dense oracle is compared against. *)
let solve_axes_filtered ?admit mesh ~rows ~n_layers () =
  let relaxation =
    Pathgraph.Layered.axes ~cols:(Pim.Mesh.cols mesh)
      ~rows:(Pim.Mesh.rows mesh) ~wrap:(Pim.Mesh.wraps mesh)
  in
  Pathgraph.Layered.solve ?admit ~n_layers [| { relaxation; rows } |]

let solve_axes mesh ~rows ~n_layers () =
  Option.get (solve_axes_filtered mesh ~rows ~n_layers ())

(* Layer [w] of a flat buffer of [n_layers] rows of width [m], as full
   rows. *)
let full_rows ~m ~n_layers flat =
  Array.init n_layers (fun w ->
      Pathgraph.Layered.Full (Array.sub flat (w * m) m))

let dense rows = Array.map Pathgraph.Layered.to_array rows

(* ------------------------------------------------------------------ *)
(* (a) arena rows vs per-array vectors                                 *)
(* ------------------------------------------------------------------ *)

let oracle_vector = Oracle.Cost_naive.cost_vector

(* the processor-list head with room the bounded schedulers place at,
   on the session's fresh memory *)
let head_with_room problem ~window ~data =
  Sched.Processor_list.choose
    (Sched.Problem.fresh_memory problem)
    (Sched.Problem.row problem ~window ~data)

let prop_arena_matches_per_array_vectors mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("arena rows equal per-array vectors, " ^ label)
    ~count:40 arb (fun trace ->
      let problem = problem_of mesh trace in
      let m = Pim.Mesh.size mesh in
      let windows = Reftrace.Trace.windows trace in
      List.for_all
        (fun data ->
          let rows = Sched.Problem.layer_rows problem ~data in
          List.mapi (fun w window -> (w, window)) windows
          |> List.for_all (fun (w, window) ->
                 let oracle = oracle_vector mesh window ~data in
                 let copy =
                   Sched.Problem.cost_vector problem ~window:w ~data
                 in
                 oracle = copy
                 && Array.for_all Fun.id
                      (Array.init m (fun c ->
                           Pathgraph.Layered.entry rows.(w) c = oracle.(c)
                           && Sched.Problem.cost_entry problem ~window:w
                                ~data c
                              = oracle.(c)))
                 && head_with_room problem ~window:w ~data
                    = Oracle.Candidates.first_available
                        (Sched.Problem.fresh_memory problem)
                        (Oracle.Candidates.of_cost_vector oracle)))
        (List.init (Sched.Problem.n_data problem) Fun.id))

(* ------------------------------------------------------------------ *)
(* (b) argmin_of_marginals vs full-vector argmin                       *)
(* ------------------------------------------------------------------ *)

let vector_argmin v =
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if v.(i) < v.(!best) then best := i
  done;
  !best

let prop_argmin_matches_vector mesh label =
  let arb = Gen.single_datum_window_arbitrary ~mesh ~max_count:3 () in
  QCheck.Test.make
    ~name:("argmin_of_marginals equals vector argmin, " ^ label)
    ~count:100 arb (fun window ->
      let wrap = Pim.Mesh.wraps mesh
      and cols = Pim.Mesh.cols mesh
      and rows = Pim.Mesh.rows mesh in
      let m =
        Reftrace.Window.marginals window ~data:0 ~cols ~rows
      in
      let center, cost = Sched.Cost.argmin_of_marginals ~wrap m in
      let v = Sched.Cost.cost_vector mesh window ~data:0 in
      center = vector_argmin v && cost = v.(center))

let prop_problem_centers_match_vector mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("Problem.optimal_center equals vector argmin, " ^ label)
    ~count:40 arb (fun trace ->
      let problem = problem_of mesh trace in
      let n_windows = Sched.Problem.n_windows problem in
      List.for_all
        (fun data ->
          List.for_all
            (fun w ->
              Sched.Problem.optimal_center problem ~window:w ~data
              = vector_argmin
                  (Sched.Problem.cost_vector problem ~window:w ~data))
            (List.init (n_windows + 1) Fun.id))
        (List.init (Sched.Problem.n_data problem) Fun.id))

(* ------------------------------------------------------------------ *)
(* (c) mesh-shaped layered DP vs the full-table dense oracle           *)
(* ------------------------------------------------------------------ *)

(* random layered instance over a real mesh: vectors plus, for the
   filtered variant, a per-(layer, node) mask (not forced feasible — an
   infeasible instance must yield None on both sides) *)
let layered_instance_gen mesh =
  let open QCheck.Gen in
  let m = Pim.Mesh.size mesh in
  int_range 1 4 >>= fun n_layers ->
  array_size (return (n_layers * m)) (int_range 0 20) >>= fun flat ->
  array_size (return (n_layers * m)) (frequencyl [ (4, true); (1, false) ])
  >>= fun mask -> return (n_layers, flat, mask)

let layered_print (n_layers, flat, mask) =
  Format.asprintf "%d layers, vectors [|%s|], mask [|%s|]" n_layers
    (String.concat ";" (Array.to_list (Array.map string_of_int flat)))
    (String.concat ";"
       (Array.to_list (Array.map (fun b -> if b then "1" else "0") mask)))

let prop_solve_axes_matches_dense mesh label =
  let arb = QCheck.make ~print:layered_print (layered_instance_gen mesh) in
  QCheck.Test.make
    ~name:("solve_axes equals full-table solve_dense, " ^ label)
    ~count:60 arb (fun (n_layers, flat, mask) ->
      let m = Pim.Mesh.size mesh in
      let dist = Oracle.Mesh_distance.table mesh in
      let vectors =
        Array.init n_layers (fun w -> Array.sub flat (w * m) m)
      in
      let allowed = Gen.allowed_of_mask ~width:m mask
      and admit = Gen.admit_of_mask ~width:m mask in
      let rows = full_rows ~m ~n_layers flat in
      let unfiltered_equal =
        solve_axes mesh ~rows ~n_layers ()
        = Oracle.Layered.solve_dense ~dist ~vectors
      in
      let filtered_equal =
        solve_axes_filtered mesh ~rows ~n_layers ~admit ()
        = Oracle.Layered.solve_dense_filtered ~dist ~vectors ~allowed
      in
      (* axis-sum rows: layer [w] as the sum of its first row and first
         column, one array shared by every layer as its x axis *)
      let cols = Pim.Mesh.cols mesh and nrows = Pim.Mesh.rows mesh in
      let shared_x = Array.sub flat 0 cols in
      let axes =
        Array.init n_layers (fun w ->
            Pathgraph.Layered.Axis_sum
              ( shared_x,
                Array.init nrows (fun y -> flat.((w * m) + (y * cols))) ))
      in
      let axes_equal =
        solve_axes_filtered mesh ~rows:axes ~n_layers ~admit ()
        = Oracle.Layered.solve_dense_filtered ~dist ~vectors:(dense axes)
            ~allowed
      in
      unfiltered_equal && filtered_equal && axes_equal)

(* ------------------------------------------------------------------ *)
(* (c') separable relaxation on edge shapes, ties and emptied lines    *)
(* ------------------------------------------------------------------ *)

(* Shapes where the distance transform's sweeps degenerate: extents 1
   and 2 (a 2-ring is a line), single rows and columns, rings in either
   orientation, and an odd torus; and total widths 2^4 and 2^4 + 1, where
   the packed cell's rank field gains a bit. *)
let relax_shapes =
  [
    (Pim.Mesh.create ~rows:1 ~cols:1, "1x1");
    (Pim.Mesh.torus ~rows:1 ~cols:1, "1x1 torus");
    (Pim.Mesh.create ~rows:2 ~cols:2, "2x2");
    (Pim.Mesh.torus ~rows:2 ~cols:2, "2x2 torus");
    (Pim.Mesh.create ~rows:1 ~cols:7, "1x7 line");
    (Pim.Mesh.create ~rows:6 ~cols:1, "6x1 line");
    (Pim.Mesh.torus ~rows:1 ~cols:7, "1x7 ring");
    (Pim.Mesh.torus ~rows:6 ~cols:1, "6x1 ring");
    (Pim.Mesh.torus ~rows:2 ~cols:5, "2x5 torus");
    (torus35, "3x5 torus");
    (Pim.Mesh.torus ~rows:4 ~cols:6, "4x6 torus");
    (Pim.Mesh.create ~rows:4 ~cols:4, "4x4, width 2^4");
    (Pim.Mesh.create ~rows:1 ~cols:17, "1x17 line, width 2^4+1");
    (Pim.Mesh.torus ~rows:17 ~cols:1, "17x1 ring, width 2^4+1");
  ]

(* Full rows are random, tie-heavy (values in {0, 1}), all equal, or
   random with one entry per layer far above the rest (a source the DP
   sets to infinity); axis-sum rows are random or tie-heavy per axis;
   the mask is all-true, random, empties whole rows
   and columns of some layers (possibly all of a layer, which must come
   back [None]), or fills a third of the ranks with a full set that
   shifts every layer, as bounded placement's rows do. *)
let relax_instance_gen mesh =
  let open QCheck.Gen in
  let rows = Pim.Mesh.rows mesh and cols = Pim.Mesh.cols mesh in
  let m = rows * cols in
  int_range 1 5 >>= fun n_layers ->
  let cells = n_layers * m in
  let full flat = return (full_rows ~m ~n_layers flat) in
  let axes top =
    array_size (return n_layers)
      (pair
         (array_size (return cols) (int_range 0 top))
         (array_size (return rows) (int_range 0 top)))
    >|= Array.map (fun (cx, cy) -> Pathgraph.Layered.Axis_sum (cx, cy))
  in
  oneof
    [
      array_size (return cells) (int_range 0 20) >>= full;
      array_size (return cells) (int_range 0 1) >>= full;
      map (fun v -> Array.make cells v) (int_range 0 9) >>= full;
      ( pair
          (array_size (return cells) (int_range 0 20))
          (array_size (return n_layers)
             (pair (int_range 0 (m - 1)) (int_range 100 (1 lsl 40))))
      >>= fun (flat, far) ->
        Array.iteri (fun layer (j, v) -> flat.((layer * m) + j) <- v) far;
        full flat );
      axes 20;
      axes 1;
    ]
  >>= fun layer_rows ->
  oneof
    [
      return (Array.make cells true);
      array_size (return cells) (frequencyl [ (4, true); (1, false) ]);
      ( array_size (return n_layers)
          (pair (int_range (-1) (rows - 1)) (int_range (-1) (cols - 1)))
      >>= fun cuts ->
        return
          (Array.init cells (fun i ->
               let layer = i / m and j = i mod m in
               let row, col = cuts.(layer) in
               j / cols <> row && j mod cols <> col)) );
      ( array_size (return n_layers) (int_range 0 2) >|= fun shifts ->
        Array.init cells (fun i ->
            let layer = i / m and j = i mod m in
            (j + shifts.(layer) + layer) mod 3 <> 0) );
    ]
  >>= fun mask -> return (n_layers, layer_rows, mask)

let relax_print (n_layers, rows, mask) =
  let kind =
    match rows.(0) with
    | Pathgraph.Layered.Full _ -> "full"
    | Axis_sum _ -> "axis-sum"
  in
  kind ^ " rows, "
  ^ layered_print (n_layers, Array.concat (Array.to_list (dense rows)), mask)

(* A batch of instances on one shape, each solved unfiltered and
   filtered, at jobs 1 and 4 (the scratch buffers are per domain), must
   equal the dense oracle on every instance. *)
let prop_relax_shapes (mesh, label) =
  let arb =
    QCheck.make
      ~print:(fun l -> String.concat "\n" (List.map relax_print l))
      QCheck.Gen.(list_size (int_range 1 4) (relax_instance_gen mesh))
  in
  QCheck.Test.make
    ~name:("separable relaxation equals solve_dense, " ^ label)
    ~count:60 arb (fun instances ->
      let instances = Array.of_list instances in
      let m = Pim.Mesh.size mesh in
      let dist = Oracle.Mesh_distance.table mesh in
      let expected =
        Array.map
          (fun (_, rows, mask) ->
            let vectors = dense rows in
            ( Some (Oracle.Layered.solve_dense ~dist ~vectors),
              Oracle.Layered.solve_dense_filtered ~dist ~vectors
                ~allowed:(Gen.allowed_of_mask ~width:m mask) ))
          instances
      in
      let solve i =
        let n_layers, rows, mask = instances.(i) in
        ( solve_axes_filtered mesh ~rows ~n_layers (),
          solve_axes_filtered mesh ~rows ~n_layers
            ~admit:(Gen.admit_of_mask ~width:m mask) () )
      in
      let n = Array.length instances in
      List.for_all
        (fun jobs -> Sched.Engine.map ~jobs n solve = expected)
        [ 1; 4 ])

(* A solve past the per-domain scratch cap (2^20 choice words) runs on
   buffers of its own; it and the kept-scratch solve after it both
   match the dense oracle. *)
let outsized_solve_case =
  Gen.case "an outsized solve matches solve_dense, and so does the next"
    (fun () ->
      let check mesh n_layers =
        let m = Pim.Mesh.size mesh in
        let flat = Array.init (n_layers * m) (fun i -> (i * 7919) mod 13) in
        let vectors = Array.init n_layers (fun w -> Array.sub flat (w * m) m) in
        Alcotest.(check bool)
          (Printf.sprintf "%d layers of %d" n_layers m)
          true
          (solve_axes mesh
             ~rows:(full_rows ~m ~n_layers flat)
             ~n_layers ()
          = Oracle.Layered.solve_dense
              ~dist:(Oracle.Mesh_distance.table mesh) ~vectors)
      in
      check (Pim.Mesh.torus ~rows:2 ~cols:2) ((1 lsl 18) + 1);
      check torus35 5)

(* ------------------------------------------------------------------ *)
(* (c''') the per-axis solve vs the 2-D DP                             *)
(* ------------------------------------------------------------------ *)

(* A single [Axes] block of axis-sum rows is solved per axis; the same
   rows as [Full] rows ([to_array]) always take the 2-D DP. Both must
   equal each other and the dense oracle, on meshes, tori, odd rings and
   1×n, n×1 and 2×2 shapes. *)
let separable_shapes =
  [
    (Pim.Mesh.create ~rows:4 ~cols:6, "4x6 mesh");
    (torus44, "4x4 torus");
    (torus35, "3x5 torus");
    (Pim.Mesh.torus ~rows:1 ~cols:7, "1x7 ring");
    (Pim.Mesh.torus ~rows:5 ~cols:1, "5x1 ring");
    (Pim.Mesh.create ~rows:1 ~cols:6, "1x6 line");
    (Pim.Mesh.create ~rows:6 ~cols:1, "6x1 line");
    (Pim.Mesh.create ~rows:2 ~cols:2, "2x2");
  ]

(* Per-axis costs: random, all zero, constant, tie-heavy ({0, 1}) or
   with one minimum repeated at two to four places. *)
let axis_costs_gen n =
  let open QCheck.Gen in
  oneof
    [
      array_size (return n) (int_range 0 20);
      return (Array.make n 0);
      map (Array.make n) (int_range 0 9);
      array_size (return n) (int_range 0 1);
      ( pair
          (array_size (return n) (int_range 3 12))
          (list_size (int_range 2 4) (int_range 0 (n - 1)))
      >|= fun (a, at) ->
        List.iter (fun i -> a.(i) <- 2) at;
        a );
    ]

(* How a case filters its layers: not at all; a random mask that keeps
   every center of the per-axis path; everything but the path's center
   at one layer; or one alive row for every layer (node faults). The
   first two are answered per axis, the third falls back to the 2-D DP,
   the fourth either. *)
type separable_filter =
  | Unfiltered
  | Keep_path of bool array
  | Cut_one of int
  | Alive of bool array

let separable_case_gen mesh =
  let open QCheck.Gen in
  let rows = Pim.Mesh.rows mesh and cols = Pim.Mesh.cols mesh in
  let m = rows * cols in
  int_range 1 5 >>= fun n_layers ->
  array_size (return n_layers)
    (pair (axis_costs_gen cols) (axis_costs_gen rows))
  >>= fun axes ->
  oneof
    [
      return Unfiltered;
      array_size (return (n_layers * m)) (frequencyl [ (2, true); (1, false) ])
      >|= (fun mask -> Keep_path mask);
      (int_range 0 (n_layers - 1) >|= fun l -> Cut_one l);
      array_size (return m) (frequencyl [ (4, true); (1, false) ])
      >|= (fun alive -> Alive alive);
    ]
  >>= fun filter ->
  return
    ( Array.map (fun (cx, cy) -> Pathgraph.Layered.Axis_sum (cx, cy)) axes,
      filter )

let separable_print (rows, filter) =
  let filter =
    match filter with
    | Unfiltered -> "unfiltered"
    | Keep_path _ -> "keeps the path"
    | Cut_one l -> Printf.sprintf "cuts layer %d" l
    | Alive _ -> "alive row"
  in
  relax_print (Array.length rows, rows, [||]) ^ ", " ^ filter

(* The flat mask of one case, [None] when it filters nothing; [path] is
   the unfiltered per-axis centers. *)
let separable_mask ~m ~n_layers ~path = function
  | Unfiltered -> None
  | Keep_path mask ->
      let mask = Array.copy mask in
      Array.iteri (fun l g -> mask.((l * m) + g) <- true) path;
      Some mask
  | Cut_one layer ->
      Some
        (Array.init (n_layers * m) (fun i -> i <> (layer * m) + path.(layer)))
  | Alive alive -> Some (Array.init (n_layers * m) (fun i -> alive.(i mod m)))

let prop_separable_matches_2d (mesh, label) =
  let arb =
    QCheck.make
      ~print:(fun l -> String.concat "\n" (List.map separable_print l))
      QCheck.Gen.(list_size (int_range 1 4) (separable_case_gen mesh))
  in
  QCheck.Test.make
    ~name:("per-axis solve equals the 2-D DP and solve_dense, " ^ label)
    ~count:80 arb (fun cases ->
      let cases = Array.of_list cases in
      let m = Pim.Mesh.size mesh in
      let dist = Oracle.Mesh_distance.table mesh in
      let masks =
        Array.map
          (fun (rows, filter) ->
            let n_layers = Array.length rows in
            let _, path = solve_axes mesh ~rows ~n_layers () in
            separable_mask ~m ~n_layers ~path filter)
          cases
      in
      let expected =
        Array.mapi
          (fun i (rows, _) ->
            let vectors = dense rows in
            let e =
              match masks.(i) with
              | None -> Some (Oracle.Layered.solve_dense ~dist ~vectors)
              | Some mask ->
                  Oracle.Layered.solve_dense_filtered ~dist ~vectors
                    ~allowed:(Gen.allowed_of_mask ~width:m mask)
            in
            (e, e))
          cases
      in
      let solve i =
        let rows, _ = cases.(i) in
        let n_layers = Array.length rows in
        let admit = Option.map (Gen.admit_of_mask ~width:m) masks.(i) in
        let full = Array.map (fun r -> Pathgraph.Layered.Full r) (dense rows) in
        ( solve_axes_filtered ?admit mesh ~rows ~n_layers (),
          solve_axes_filtered ?admit mesh ~rows:full ~n_layers () )
      in
      let n = Array.length cases in
      List.for_all
        (fun jobs -> Sched.Engine.map ~jobs n solve = expected)
        [ 1; 4 ])

(* Which path answered: an unfiltered solve runs no 2-D DP, a solve
   whose per-axis path loses one center runs it once, and the per-axis
   DP runs in both. The counts are per solve, the same at jobs 1 and
   4. *)
let separable_counters_case =
  Gen.case "per-axis answers and 2-D fallbacks are counted per solve"
    (fun () ->
      let mesh = torus35 in
      let m = Pim.Mesh.size mesh and n_layers = 4 in
      let rows =
        Array.init n_layers (fun l ->
            Pathgraph.Layered.Axis_sum
              ( Array.init 5 (fun x -> (x + l) * 7 mod 5),
                Array.init 3 (fun y -> (y + (2 * l)) * 5 mod 3) ))
      in
      let _, path = solve_axes mesh ~rows ~n_layers () in
      let cut =
        Gen.admit_of_mask ~width:m
          (Array.init (n_layers * m) (fun i -> i <> (2 * m) + path.(2)))
      in
      let counters jobs =
        Obs.with_enabled (fun () ->
            Obs.reset ();
            ignore
              (Sched.Engine.map ~jobs 6 (fun i ->
                   if i mod 2 = 0 then
                     solve_axes_filtered mesh ~rows ~n_layers ()
                   else
                     solve_axes_filtered ~admit:cut mesh ~rows
                       ~n_layers ()));
            let snap = Obs.Metrics.snapshot () in
            Obs.reset ();
            List.map (Obs.Metrics.counter snap)
              [
                "layered.separable_solves";
                "layered.separable_answers";
                "layered.solves";
              ])
      in
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "separable solves, answers, 2-D solves at jobs %d"
               jobs)
            [ 6; 3; 3 ] (counters jobs))
        [ 1; 4 ])

(* The admit contract under composition: a node-faulted session ANDs
   the caller's rows with its alive row into one buffer shared by every
   layer, and the caller hands back one buffer it rewrites per layer, as
   [Pim.Memory] does. The per-axis check and the 2-D fallback each read
   layer [l]'s row before asking for layer [l + 1]'s, so [solve_datum]
   equals the dense DP masked by both, at jobs 1 and 4. *)
let prop_faulted_capacity_admit mesh label =
  let arb =
    QCheck.pair
      (Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 ())
      QCheck.small_nat
  in
  let fault = Pim.Fault.create ~dead_nodes:[ 1; 6 ] () in
  QCheck.Test.make
    ~name:("node faults and a capacity admit together, " ^ label)
    ~count:60 arb (fun (trace, salt) ->
      let m = Pim.Mesh.size mesh in
      let dist = Oracle.Mesh_distance.table mesh in
      let full ~layer j = (((layer + 3) * 13) + (j * 7) + salt) mod 4 = 0 in
      let run jobs =
        let problem = Sched.Problem.create ~jobs ~fault mesh trace in
        let n = Sched.Problem.n_data problem in
        let expected =
          Array.init n (fun data ->
              Oracle.Layered.solve_dense_filtered ~dist
                ~vectors:(dense (Sched.Problem.layer_rows problem ~data))
                ~allowed:(fun ~layer j ->
                  Sched.Problem.rank_alive problem j && not (full ~layer j)))
        in
        let solve data =
          let row = Bytes.make m '\001' in
          let admit layer =
            for j = 0 to m - 1 do
              Bytes.set row j (if full ~layer j then '\000' else '\001')
            done;
            row
          in
          Sched.Problem.solve_datum ~admit problem ~data
        in
        Sched.Engine.map ~jobs n solve = expected
      in
      run 1 && run 4)

(* ------------------------------------------------------------------ *)
(* (c'') the Table relaxation vs the dense oracle                      *)
(* ------------------------------------------------------------------ *)

(* Arbitrary tables — asymmetric, non-metric, with [unreachable_cost]
   entries — so the ascending scan's tie rule is pinned on its own, not
   through a distance the sweeps could also express. *)
let table_instance_gen =
  let open QCheck.Gen in
  int_range 1 6 >>= fun width ->
  int_range 1 5 >>= fun n_layers ->
  array_size
    (return (width * width))
    (frequency
       [ (6, int_range 0 4); (1, return Sched.Problem.unreachable_cost) ])
  >>= fun table ->
  array_size (return (n_layers * width)) (int_range 0 6) >>= fun flat ->
  array_size (return (n_layers * width)) (frequencyl [ (4, true); (1, false) ])
  >>= fun mask -> return (width, n_layers, table, flat, mask)

let table_print (width, n_layers, table, flat, mask) =
  let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "width %d, %d layers, table [|%s|], vectors [|%s|], mask %s"
    width n_layers (ints table) (ints flat)
    (String.concat ""
       (Array.to_list (Array.map (fun b -> if b then "1" else "0") mask)))

let prop_table_matches_dense =
  QCheck.Test.make ~name:"Table relaxation equals solve_dense" ~count:300
    (QCheck.make ~print:table_print table_instance_gen)
    (fun (width, n_layers, table, flat, mask) ->
      let dist = Array.init width (fun j -> Array.sub table (j * width) width) in
      let vectors = Array.init n_layers (fun w -> Array.sub flat (w * width) width) in
      let allowed = Gen.allowed_of_mask ~width mask
      and admit = Gen.admit_of_mask ~width mask in
      let block =
        {
          Pathgraph.Layered.relaxation = Pathgraph.Layered.table dist;
          rows = full_rows ~m:width ~n_layers flat;
        }
      in
      Pathgraph.Layered.solve ~n_layers [| block |]
      = Some (Oracle.Layered.solve_dense ~dist ~vectors)
      && Pathgraph.Layered.solve ~admit ~n_layers [| block |]
         = Oracle.Layered.solve_dense_filtered ~dist ~vectors ~allowed)

(* A [Table] step must pack beside the ranks: with 4 ranks (2 bits) a
   step below 2^58 solves — here the only path takes it — and one at
   2^58 is refused. *)
let table_ceiling_case =
  Gen.case "a Table entry at the packing ceiling is refused" (fun () ->
      let width = 4 and n_layers = 2 in
      let table top =
        Array.init width (fun j ->
            Array.init width (fun k ->
                if j = k then 0 else if (j, k) = (0, width - 1) then top else 1))
      in
      let vectors = Array.make_matrix n_layers width 0 in
      (* layer 0 admits rank 0 only, layer 1 rank 3 only *)
      let mask = Array.init (n_layers * width) (fun i -> i = 0 || i = 7) in
      let solve top =
        Pathgraph.Layered.solve ~n_layers
          ~admit:(Gen.admit_of_mask ~width mask)
          [|
            {
              relaxation = Pathgraph.Layered.table (table top);
              rows = Array.map (fun v -> Pathgraph.Layered.Full v) vectors;
            };
          |]
      in
      let top = (1 lsl 58) - 1 in
      Alcotest.(check bool)
        "a step just below the ceiling solves like the oracle" true
        (solve top = Some (top, [| 0; width - 1 |])
        && solve top
           = Oracle.Layered.solve_dense_filtered ~dist:(table top) ~vectors
               ~allowed:(Gen.allowed_of_mask ~width mask));
      match solve (1 lsl 58) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "a step at 2^58 beside 2-bit ranks must be refused")

(* Link faults that cut rank 0 off entirely, so the BFS table holds
   [unreachable_cost] pairs, plus one more dead link elsewhere; and a
   32x32 mesh cut in two halves, where [unreachable_cost] packs beside
   10-bit ranks. The last field is the QCheck count. *)
let link_fault_cases =
  let split32 =
    Pim.Fault.create
      ~dead_links:(List.init 32 (fun r -> ((r * 32) + 15, (r * 32) + 16)))
      ()
  in
  [
    (Gen.mesh44, Pim.Fault.create ~dead_links:[ (0, 1); (0, 4); (9, 10) ] (),
     "mesh", 40);
    ( torus35,
      Pim.Fault.create ~dead_links:[ (0, 1); (0, 4); (0, 5); (0, 10); (7, 8) ] (),
      "torus", 40 );
    (Pim.Mesh.square 32, split32, "32x32 split in two", 3);
    ( Gen.mesh44,
      Pim.Fault.create ~dead_nodes:[ 5; 10 ] ~dead_links:[ (0, 1); (0, 4) ] (),
      "mesh, dead nodes too",
      40 );
  ]

(* A link-faulted session relaxes over its BFS table: [solve_datum],
   filtered or not, at jobs 1 and 4, equals the dense DP over that table
   and the session's own arena rows, with dead ranks masked on top of
   the caller's rows. *)
let prop_link_fault_solve_matches_dense (mesh, fault, label, count) =
  let arb =
    QCheck.pair
      (Gen.trace_arbitrary ~mesh ~max_data:4 ~max_windows:4 ~max_count:3 ())
      QCheck.small_nat
  in
  QCheck.Test.make
    ~name:("link-faulted solve_datum equals solve_dense, " ^ label)
    ~count arb (fun (trace, salt) ->
      let problem = Sched.Problem.create ~fault mesh trace in
      let dist =
        match Sched.Problem.relaxation problem with
        | Pathgraph.Layered.Table { dist; _ } -> dist
        | Axes _ -> Alcotest.fail "link faults must relax over the BFS table"
      in
      if not (Array.mem Sched.Problem.unreachable_cost dist.(0)) then
        Alcotest.fail "the fault must disconnect rank 0 from some rank";
      let m = Pim.Mesh.size mesh in
      let mask =
        Array.init (Sched.Problem.n_windows problem * m) (fun i ->
            let layer = i / m and j = i mod m in
            (((layer + 1) * 31) + (j * 17) + salt) mod 5 <> 0)
      in
      let allowed = Gen.allowed_of_mask ~width:m mask
      and admit = Gen.admit_of_mask ~width:m mask in
      let alive ~layer:_ j = Sched.Problem.rank_alive problem j in
      let n = Sched.Problem.n_data problem in
      let expected =
        Array.init n (fun data ->
            let vectors = Oracle.Problem.layer_vectors problem ~data in
            ( (if Pim.Fault.has_node_faults fault then
                 Oracle.Layered.solve_dense_filtered ~dist ~vectors
                   ~allowed:alive
               else Some (Oracle.Layered.solve_dense ~dist ~vectors)),
              Oracle.Layered.solve_dense_filtered ~dist ~vectors
                ~allowed:(fun ~layer j -> alive ~layer j && allowed ~layer j) ))
      in
      let solve data =
        ( Sched.Problem.solve_datum problem ~data,
          Sched.Problem.solve_datum ~admit problem ~data )
      in
      List.for_all
        (fun jobs -> Sched.Engine.map ~jobs n solve = expected)
        [ 1; 4 ])

(* Grouped refinement: [refine_centers] (axis relaxation on healthy and
   node-faulted contexts, BFS table under link faults) picks the same
   centers as the callback DP over [Problem.distance]; the rows are the
   datum's per-window session rows (axis sums unless links are dead). *)
let closure_centers problem rows =
  let p =
    {
      Oracle.Layered.n_layers = Array.length rows;
      width = Pim.Mesh.size (Sched.Problem.mesh problem);
      enter_cost = Pathgraph.Layered.entry rows.(0);
      step_cost =
        (fun ~layer j k ->
          Sched.Problem.distance problem j k
          + Pathgraph.Layered.entry rows.(layer) k);
    }
  in
  let allowed ~layer:_ j = Sched.Problem.rank_alive problem j in
  snd (Option.get (Oracle.Layered.solve_filtered p ~allowed))

let prop_refine_routes_agree (mesh, fault, label) =
  let arb =
    Gen.trace_arbitrary ~mesh ~max_data:4 ~max_windows:5 ~max_count:3 ()
  in
  QCheck.Test.make
    ~name:("refine_centers axis route = closure route, " ^ label)
    ~count:40 arb (fun trace ->
      let problem = Sched.Problem.create ~fault mesh trace in
      List.for_all
        (fun data ->
          let rows = Sched.Problem.layer_rows problem ~data in
          Sched.Grouping.refine_centers problem rows
          = closure_centers problem rows)
        (List.init (Sched.Problem.n_data problem) Fun.id))

let refine_route_cases =
  [
    (Gen.mesh44, Pim.Fault.none, "healthy mesh");
    (torus35, Pim.Fault.none, "healthy torus");
    (Gen.mesh44, Pim.Fault.create ~dead_nodes:[ 0; 5; 6; 15 ] (), "dead nodes");
    (torus35, Pim.Fault.create ~dead_nodes:[ 2; 7 ] (), "dead nodes, torus");
  ]

(* ------------------------------------------------------------------ *)
(* (d) ported Annealing / Online vs their pre-port implementations     *)
(* ------------------------------------------------------------------ *)

(* Verbatim copies of the standalone implementations as they stood before
   the port onto Problem.t — the oracles the ported code must reproduce
   byte-for-byte. They intentionally bypass Problem and price everything
   through Cost directly. *)
module Pre_port = struct
  let make_rng seed =
    let state = ref (if seed = 0 then 0xBEEF else seed) in
    fun bound ->
      let x = !state in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      state := x land max_int;
      !state mod bound

  let anneal ?capacity ?(seed = 0xBEEF) ?(iterations = 50_000) mesh trace =
    let space = Reftrace.Trace.space trace in
    let n_data = Reftrace.Data_space.size space in
    let n_windows = Reftrace.Trace.n_windows trace in
    let m = Pim.Mesh.size mesh in
    let sched =
      Sched.Baseline.schedule (Sched.Baseline.row_wise mesh space) mesh trace
    in
    let windows = Array.of_list (Reftrace.Trace.windows trace) in
    let volume = Array.init n_data (Reftrace.Data_space.volume_of space) in
    let loads = Array.make_matrix n_windows m 0 in
    for w = 0 to n_windows - 1 do
      for d = 0 to n_data - 1 do
        let r = Sched.Schedule.center sched ~window:w ~data:d in
        loads.(w).(r) <- loads.(w).(r) + 1
      done
    done;
    let rng = make_rng seed in
    let dist = Pim.Mesh.distance mesh in
    let delta w d r r' =
      let refs =
        Sched.Cost.reference_cost mesh windows.(w) ~data:d ~center:r'
        - Sched.Cost.reference_cost mesh windows.(w) ~data:d ~center:r
      in
      let edge w' =
        let other = Sched.Schedule.center sched ~window:w' ~data:d in
        dist r' other - dist r other
      in
      let moves =
        (if w > 0 then edge (w - 1) else 0)
        + if w < n_windows - 1 then edge (w + 1) else 0
      in
      volume.(d) * (refs + moves)
    in
    let initial_cost = Sched.Schedule.total_cost sched trace in
    let current = ref initial_cost in
    let temp =
      ref (float_of_int (max 1 (initial_cost / max 1 (n_data * 4))))
    in
    let cooling =
      if iterations = 0 then 1.
      else Float.exp (Float.log 0.001 /. float_of_int iterations)
    in
    for _ = 1 to iterations do
      let w = rng n_windows and d = rng n_data and r' = rng m in
      let r = Sched.Schedule.center sched ~window:w ~data:d in
      let room =
        match capacity with None -> true | Some c -> loads.(w).(r') < c
      in
      if r' <> r && room then begin
        let dl = delta w d r r' in
        let accept =
          dl <= 0
          ||
          let u = float_of_int (1 + rng 1_000_000) /. 1_000_000. in
          u < Float.exp (-.float_of_int dl /. !temp)
        in
        if accept then begin
          Sched.Schedule.set_center sched ~window:w ~data:d r';
          loads.(w).(r) <- loads.(w).(r) - 1;
          loads.(w).(r') <- loads.(w).(r') + 1;
          current := !current + dl
        end
      end;
      temp := Float.max 1e-6 (!temp *. cooling)
    done;
    sched

  let online ?capacity ?(theta = 2.) mesh trace =
    let space = Reftrace.Trace.space trace in
    let n_data = Reftrace.Data_space.size space in
    let n_windows = Reftrace.Trace.n_windows trace in
    let initial = Sched.Baseline.row_wise mesh space in
    let schedule = Sched.Schedule.create mesh ~n_windows ~n_data in
    let current = Array.copy initial in
    List.iteri
      (fun w window ->
        if w > 0 then begin
          let memory =
            match capacity with
            | None -> Pim.Memory.unbounded mesh
            | Some c -> Pim.Memory.create mesh ~capacity:c
          in
          Array.iter
            (fun rank ->
              let ok = Pim.Memory.allocate memory rank in
              assert ok)
            current;
          List.iter
            (fun data ->
              let here = current.(data) in
              let stay =
                Sched.Cost.reference_cost mesh window ~data ~center:here
              in
              Pim.Memory.release memory here;
              let candidates = Oracle.Candidates.for_data mesh window ~data in
              let best =
                match
                  Oracle.Candidates.first_available memory candidates
                with
                | Some rank -> rank
                | None -> here
              in
              let go = Sched.Cost.reference_cost mesh window ~data ~center:best in
              let move = Pim.Mesh.distance mesh here best in
              let chosen =
                if
                  best <> here
                  && float_of_int (stay - go) *. theta > float_of_int move
                then best
                else here
              in
              let ok = Pim.Memory.allocate memory chosen in
              assert ok;
              current.(data) <- chosen)
            (Sched.Ordering.by_window_references window)
        end;
        Array.iteri
          (fun data rank ->
            Sched.Schedule.set_center schedule ~window:w ~data rank)
          current)
      (Reftrace.Trace.windows trace);
    schedule
end

let capacity_of mesh trace =
  Pim.Memory.capacity_for
    ~data_count:(Reftrace.Data_space.size (Reftrace.Trace.space trace))
    ~mesh ~headroom:2

let policies mesh trace =
  [ (None, Sched.Problem.Unbounded);
    (Some (capacity_of mesh trace), Sched.Problem.Bounded (capacity_of mesh trace)) ]

let prop_annealing_port_matches mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("ported Annealing equals pre-port oracle, " ^ label)
    ~count:15 arb (fun trace ->
      List.for_all
        (fun (capacity, policy) ->
          List.for_all
            (fun jobs ->
              let problem = problem_of ~policy ~jobs mesh trace in
              let ported, _ =
                Sched.Annealing.anneal ~seed:7 ~iterations:400 problem
              in
              let oracle =
                Pre_port.anneal ?capacity ~seed:7 ~iterations:400 mesh trace
              in
              Sched.Schedule.equal ported oracle)
            [ 1; 4 ])
        (policies mesh trace))

let prop_online_port_matches mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("ported Online equals pre-port oracle, " ^ label)
    ~count:25 arb (fun trace ->
      List.for_all
        (fun (capacity, policy) ->
          List.for_all
            (fun jobs ->
              let problem = problem_of ~policy ~jobs mesh trace in
              let ported = Sched.Online.schedule ~theta:1.5 problem in
              let oracle = Pre_port.online ?capacity ~theta:1.5 mesh trace in
              Sched.Schedule.equal ported oracle)
            [ 1; 4 ])
        (policies mesh trace))

(* The unbounded Scds/Lomcds argmin fast paths vs the candidate-list
   route they replaced (forced by a Bounded policy with enough headroom
   to never bind: capacity >= n_data makes every allocation succeed at
   the list head, i.e. the argmin). *)
let prop_unbounded_fast_paths_match mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("unbounded argmin fast paths equal list walks, " ^ label)
    ~count:25 arb (fun trace ->
      let n_data = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
      let slack = Sched.Problem.Bounded n_data in
      List.for_all
        (fun jobs ->
          let fast = problem_of ~jobs mesh trace in
          let slow = problem_of ~policy:slack ~jobs mesh trace in
          Sched.Schedule.equal (Sched.Scds.schedule fast)
            (Sched.Scds.schedule slow)
          && Sched.Schedule.equal
               (Sched.Lomcds.schedule fast)
               (Sched.Lomcds.schedule slow))
        [ 1; 4 ])

(* ------------------------------------------------------------------ *)
(* Window.merge direct summation vs replaying every reference          *)
(* ------------------------------------------------------------------ *)

let window_pair_gen =
  let open QCheck.Gen in
  let one =
    int_range 1 24 >>= fun n_refs ->
    list_size (return n_refs)
      (pair
         (triple (int_range 0 3) (int_range 0 15) (int_range 1 3))
         bool)
  in
  pair one one

let window_of specs =
  let w = Reftrace.Window.create ~n_data:4 in
  List.iter
    (fun ((data, proc, count), write) ->
      let kind =
        if write then Reftrace.Window.Write else Reftrace.Window.Read
      in
      Reftrace.Window.add w ~kind ~data ~proc ~count)
    specs;
  w

let replay ~into src =
  for data = 0 to Reftrace.Window.n_data src - 1 do
    List.iter
      (fun (proc, count) ->
        Reftrace.Window.add into ~kind:Reftrace.Window.Read ~data ~proc
          ~count)
      (Reftrace.Window.read_profile src data);
    List.iter
      (fun (proc, count) ->
        Reftrace.Window.add into ~kind:Reftrace.Window.Write ~data ~proc
          ~count)
      (Reftrace.Window.write_profile src data)
  done

let prop_merge_equals_replay =
  QCheck.Test.make ~name:"Window.merge equals replaying every reference"
    ~count:100
    (QCheck.make window_pair_gen)
    (fun (sa, sb) ->
      let a = window_of sa and b = window_of sb in
      let merged = Reftrace.Window.merge a b in
      let replayed = Reftrace.Window.create ~n_data:4 in
      replay ~into:replayed a;
      replay ~into:replayed b;
      Reftrace.Window.equal merged replayed
      && List.for_all
           (fun data ->
             Reftrace.Window.profile merged data
             = Reftrace.Window.profile replayed data
             && Reftrace.Window.references merged data
                = Reftrace.Window.references replayed data
             && Reftrace.Window.marginals merged ~data ~cols:4 ~rows:4
                = Reftrace.Window.marginals replayed ~data ~cols:4 ~rows:4)
           [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* The row store                                                       *)
(* ------------------------------------------------------------------ *)

(* Every row a session serves, the merged window's (index [n_windows])
   included, equals the direct profile walk entry for entry — over mesh
   distances, or the BFS distances around dead links — read lazily and
   after a window-major [prefetch_all] at jobs 4. Rows are axis sums
   unless links are dead, and every window that does not reference a
   datum reads one physically shared all-zero row. *)
let store_faults =
  [
    ("healthy", Pim.Fault.none);
    ("node-faulted", Pim.Fault.create ~dead_nodes:[ 1; 6 ] ());
    ("link-faulted", Pim.Fault.create ~dead_links:[ (0, 1); (5, 6) ] ());
  ]

let prop_row_store mesh label (kind, fault) =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  let size = Pim.Mesh.size mesh in
  let dist =
    if Pim.Fault.has_link_faults fault then begin
      let bfs = Pim.Fault.Paths.create mesh fault in
      fun src dst ->
        Option.value ~default:Sched.Problem.unreachable_cost
          (Pim.Fault.Paths.distance bfs ~src ~dst)
    end
    else Pim.Mesh.distance mesh
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "row store = Cost_naive, %s %s" kind label)
    ~count:30 arb (fun trace ->
      let lazy_ = Sched.Problem.create ~fault mesh trace in
      let eager = Sched.Problem.create ~jobs:4 ~fault mesh trace in
      Sched.Problem.prefetch_all eager;
      let nw = Sched.Problem.n_windows lazy_ in
      let window w =
        if w = nw then Sched.Problem.merged lazy_
        else Sched.Problem.window lazy_ w
      in
      let zeros = ref [] in
      let cells =
        List.concat_map
          (fun data -> List.init (nw + 1) (fun w -> (data, w)))
          (List.init (Sched.Problem.n_data lazy_) Fun.id)
      in
      List.for_all
        (fun problem ->
          List.for_all
            (fun (data, w) ->
              let row = Sched.Problem.row problem ~window:w ~data in
              if Reftrace.Window.references (window w) data = 0 then
                zeros := row :: !zeros;
              let form_ok =
                match row with
                | Pathgraph.Layered.Axis_sum _ ->
                    not (Pim.Fault.has_link_faults fault)
                | Full _ -> Pim.Fault.has_link_faults fault
              in
              form_ok
              && Pathgraph.Layered.to_array row
                 = Oracle.Cost_naive.cost_vector_over ~size ~dist (window w)
                     ~data)
            cells
          &&
          match !zeros with
          | [] -> true
          | z :: rest ->
              zeros := [];
              List.for_all (fun r -> r == z) rest
              && Array.for_all (( = ) 0) (Pathgraph.Layered.to_array z))
        [ lazy_; eager ])

(* ------------------------------------------------------------------ *)
(* Arena-backed path / trajectory costs vs the Cost-module oracle      *)
(* ------------------------------------------------------------------ *)

let oracle_path_cost = Oracle.Cost_naive.path_cost

let prop_path_cost_matches mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("Problem.path/trajectory_cost equal Cost.path_cost, " ^ label)
    ~count:40 arb (fun trace ->
      let problem = problem_of mesh trace in
      let m = Pim.Mesh.size mesh in
      let windows = Array.of_list (Reftrace.Trace.windows trace) in
      let n_windows = Array.length windows in
      List.for_all
        (fun data ->
          (* deterministic pseudo-random centers; equality is what counts *)
          let center w = ((data * 7) + (w * 13) + 5) mod m in
          let centers = Array.init n_windows center in
          let pairs = List.init n_windows (fun w -> (w, center w)) in
          let profiles =
            List.map (fun (w, c) -> (windows.(w), c)) pairs
          in
          Sched.Problem.trajectory_cost problem ~data centers
          = oracle_path_cost mesh profiles ~data
          && Sched.Problem.path_cost problem ~data [ (0, center 0) ]
             = oracle_path_cost mesh [ (windows.(0), center 0) ] ~data)
        (List.init (Sched.Problem.n_data problem) Fun.id))

(* ------------------------------------------------------------------ *)
(* Merged-window cells vs the merge_list oracle                        *)
(* ------------------------------------------------------------------ *)

let prop_merged_matches mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("merged vector/center/candidates equal merge_list oracle, " ^ label)
    ~count:40 arb (fun trace ->
      let problem = problem_of mesh trace in
      let merged =
        Reftrace.Window.merge_list (Reftrace.Trace.windows trace)
      in
      let window = Sched.Problem.n_windows problem in
      List.for_all
        (fun data ->
          let oracle = oracle_vector mesh merged ~data in
          Sched.Problem.cost_vector problem ~window ~data = oracle
          && Sched.Problem.optimal_center problem ~window ~data
             = vector_argmin oracle
          && head_with_room problem ~window ~data
             = Oracle.Candidates.first_available
                 (Sched.Problem.fresh_memory problem)
                 (Oracle.Candidates.of_cost_vector oracle))
        (List.init (Sched.Problem.n_data problem) Fun.id))

(* ------------------------------------------------------------------ *)
(* Window.marginals vs a direct per-reference projection               *)
(* ------------------------------------------------------------------ *)

(* The incremental (x, y) walk in [Window.marginals] vs projecting each
   profile entry with div/mod — the obvious spec it replaced. *)
let prop_marginals_oracle mesh label =
  let arb = Gen.single_datum_window_arbitrary ~mesh ~max_count:3 () in
  QCheck.Test.make
    ~name:("Window.marginals equals per-reference projection, " ^ label)
    ~count:100 arb (fun window ->
      let cols = Pim.Mesh.cols mesh and rows = Pim.Mesh.rows mesh in
      let mx = Array.make cols 0 and my = Array.make rows 0 in
      List.iter
        (fun (proc, count) ->
          mx.(proc mod cols) <- mx.(proc mod cols) + count;
          my.(proc / cols) <- my.(proc / cols) + count)
        (Reftrace.Window.profile window 0);
      Reftrace.Window.marginals window ~data:0 ~cols ~rows = (mx, my))

(* ------------------------------------------------------------------ *)
(* axis_cost vs the O(E^2) definition                                  *)
(* ------------------------------------------------------------------ *)

let axis_gen =
  let open QCheck.Gen in
  int_range 1 12 >>= fun e ->
  array_size (return e) (int_range 0 9)

let prop_axis_cost_oracle ~wrap label =
  QCheck.Test.make
    ~name:("axis_cost equals the O(E^2) definition, " ^ label)
    ~count:100
    (QCheck.make
       ~print:(fun m ->
         String.concat ";" (Array.to_list (Array.map string_of_int m)))
       axis_gen)
    (fun m ->
      let e = Array.length m in
      let d1 i j =
        let d = abs (i - j) in
        if wrap then min d (e - d) else d
      in
      let oracle =
        Array.init e (fun i ->
            Array.to_list m
            |> List.mapi (fun j w -> w * d1 i j)
            |> List.fold_left ( + ) 0)
      in
      Sched.Cost.axis_cost ~wrap m = oracle)

(* ------------------------------------------------------------------ *)
(* solve_axes input validation and Problem.merged memoization          *)
(* ------------------------------------------------------------------ *)

let solve_axes_validation_cases =
  let mesh = Gen.mesh44 in
  let m = Pim.Mesh.size mesh in
  let full n = Pathgraph.Layered.Full (Array.make n 1) in
  let rejects name f = Gen.case name (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (name ^ ": expected Invalid_argument"))
  in
  [
    rejects "solve_axes rejects a short row" (fun () ->
        solve_axes mesh
          ~rows:[| full m; full (m - 1) |]
          ~n_layers:2 ());
    rejects "solve_axes rejects fewer rows than layers" (fun () ->
        solve_axes mesh ~rows:[| full m |] ~n_layers:2 ());
    rejects "solve_axes rejects an axis sum of the wrong shape" (fun () ->
        solve_axes mesh
          ~rows:[| full m; Axis_sum (Array.make 4 0, Array.make 3 0) |]
          ~n_layers:2 ());
    rejects "a Table block rejects an axis-sum row" (fun () ->
        Pathgraph.Layered.solve ~n_layers:1
          [|
            {
              relaxation =
                Pathgraph.Layered.table (Oracle.Mesh_distance.table mesh);
              rows = [| Axis_sum (Array.make 4 0, Array.make 4 0) |];
            };
          |]);
    (* a relaxation is checked once, when it is made *)
    rejects "Layered.axes rejects a zero extent" (fun () ->
        Pathgraph.Layered.axes ~cols:4 ~rows:0 ~wrap:false);
    rejects "Layered.table rejects a ragged table" (fun () ->
        Pathgraph.Layered.table
          (Array.map (fun r -> Array.sub r 0 2) (Oracle.Mesh_distance.table mesh)));
    rejects "Layered.table rejects a negative entry" (fun () ->
        Pathgraph.Layered.table [| [| 0; -1 |]; [| 1; 0 |] |]);
  ]

let merged_memo_case =
  Gen.case "Problem.merged is computed once and shared" (fun () ->
      let trace =
        Gen.trace Gen.mesh44 ~n_data:2
          [ [ (0, 1, 2); (1, 3, 1) ]; [ (0, 5, 1) ] ]
      in
      let problem = problem_of Gen.mesh44 trace in
      let a = Sched.Problem.merged problem in
      let b = Sched.Problem.merged problem in
      Alcotest.(check bool) "same window value" true (a == b);
      Alcotest.(check bool) "equals merge_list" true
        (Reftrace.Window.equal a
           (Reftrace.Window.merge_list (Reftrace.Trace.windows trace))))

(* A context's merged window and its admission bytes, on an instance of
   real size (LU n=24 on 16x16, 576 data), equal those of the hashtable
   oracle: per-window replays folded pairwise into one window. *)
let context_oracle_case =
  Gen.case "Context on LU 24 / 16x16 = hashtable oracle" (fun () ->
      let mesh = Pim.Mesh.square 16 in
      let trace = Workloads.Lu.trace ~n:24 mesh in
      let oracle =
        List.map Oracle.Window.of_window (Reftrace.Trace.windows trace)
      in
      let merged = Oracle.Window.merge_list oracle in
      let n_data = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
      let referencing =
        List.fold_left
          (fun acc w ->
            acc
            + List.length
                (List.filter
                   (fun data -> Oracle.Window.references w data > 0)
                   (List.init n_data Fun.id)))
          0 oracle
      in
      List.iter
        (fun jobs ->
          let ctx = Sched.Context.create ~jobs mesh trace in
          Alcotest.(check bool)
            (Printf.sprintf "jobs %d: merged window" jobs)
            true
            (Oracle.Window.agrees merged ctx.Sched.Context.merged);
          Alcotest.(check int)
            (Printf.sprintf "jobs %d: max_arena_bytes" jobs)
            (8 * Pim.Mesh.size mesh * (n_data + referencing))
            ctx.Sched.Context.max_arena_bytes)
        [ 1; 4 ])

let unreferenced_datum_case =
  Gen.case "unreferenced datum rows are the shared zero row" (fun () ->
      (* datum 1 is never referenced: every window, the merged one
         included, serves it the same all-zero row *)
      let trace =
        Gen.trace Gen.mesh44 ~n_data:2 [ [ (0, 1, 2) ]; [ (0, 5, 1) ] ]
      in
      let problem = problem_of Gen.mesh44 trace in
      let rows =
        List.init 3 (fun w -> Sched.Problem.row problem ~window:w ~data:1)
      in
      let z = List.hd rows in
      Alcotest.(check bool)
        "one shared row" true
        (List.for_all (( == ) z) rows);
      Alcotest.(check (array int)) "all zero"
        (Array.make (Pim.Mesh.size Gen.mesh44) 0)
        (Pathgraph.Layered.to_array z))

let per_mesh f = List.concat_map (fun (mesh, label) -> f mesh label)
    [ (Gen.mesh44, "mesh"); (torus44, "torus"); (torus35, "odd torus") ]

(* degenerate extents for the argmin fast path: single-row meshes and a
   1-high ring, where one axis marginal has a single cell (and on the
   ring a zero wrap distance) *)
let edge_meshes =
  [
    (Pim.Mesh.create ~rows:1 ~cols:8, "1x8 mesh");
    (Pim.Mesh.create ~rows:8 ~cols:1, "8x1 mesh");
    (Pim.Mesh.torus ~rows:1 ~cols:6, "1x6 ring");
  ]

let suite =
  List.map Gen.to_alcotest
    (List.concat
       [
         List.concat_map
           (fun mesh ->
             let label =
               if Pim.Mesh.wraps mesh then "torus" else "mesh"
             in
             [
               prop_arena_matches_per_array_vectors mesh label;
               prop_problem_centers_match_vector mesh label;
               prop_solve_axes_matches_dense mesh label;
               prop_annealing_port_matches mesh label;
               prop_online_port_matches mesh label;
               prop_unbounded_fast_paths_match mesh label;
               prop_path_cost_matches mesh label;
               prop_merged_matches mesh label;
             ])
           meshes;
         per_mesh (fun mesh label ->
             [
               prop_argmin_matches_vector mesh label;
               prop_marginals_oracle mesh label;
             ]
             @ List.map (prop_row_store mesh label) store_faults);
         List.map
           (fun (mesh, label) -> prop_argmin_matches_vector mesh label)
           edge_meshes;
         List.map prop_relax_shapes relax_shapes;
         List.map prop_separable_matches_2d separable_shapes;
         List.map
           (fun mesh ->
             prop_faulted_capacity_admit mesh
               (if Pim.Mesh.wraps mesh then "torus" else "mesh"))
           meshes;
         List.map prop_refine_routes_agree refine_route_cases;
         [
           prop_axis_cost_oracle ~wrap:false "line";
           prop_axis_cost_oracle ~wrap:true "circle";
           prop_merge_equals_replay;
         ];
       ])
  @ solve_axes_validation_cases
  @ [
      merged_memo_case;
      context_oracle_case;
      unreferenced_datum_case;
      outsized_solve_case;
      separable_counters_case;
      table_ceiling_case;
    ]
  @ List.map Gen.to_alcotest
      (prop_table_matches_dense
      :: prop_refine_routes_agree
           ( Gen.mesh44,
             Pim.Fault.create ~dead_nodes:[ 6 ] ~dead_links:[ (0, 1); (0, 4) ] (),
             "dead links" )
      :: List.map prop_link_fault_solve_matches_dense link_fault_cases)
