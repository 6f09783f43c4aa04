(* Differential harness for the flat-arena / argmin / axis-table fast
   paths: every rewritten layer is pinned byte-identical to the surviving
   oracle it replaced.

   - arena-backed vectors vs per-array [Oracle.Cost_naive] builds;
   - [Cost.argmin_of_marginals] vs the full-vector ascending argmin, on
     meshes and tori (circular prefix sums);
   - [Layered.solve] on [Axes] and [Table] blocks vs the full-table dense
     DP ([Oracle.Layered.solve_dense(_filtered)]);
   - the [Problem.t]-ported [Annealing]/[Online] vs verbatim copies of
     their pre-port standalone implementations, at fixed seeds, serial
     and at jobs = 4;
   - [Window.merge]'s direct row summation vs replaying every reference. *)

let torus44 = Pim.Mesh.torus ~rows:4 ~cols:4
let torus35 = Pim.Mesh.torus ~rows:3 ~cols:5

(* one mesh and one torus, even and odd extents *)
let meshes = [ Gen.mesh44; torus35 ]

let problem_of ?policy ?(jobs = 1) mesh trace =
  Sched.Problem.create ?policy ~jobs mesh trace

(* The production DP on one [Axes] block — the shape the dense
   oracle is compared against. Without [offsets] the layer rows are back
   to back. *)
let solve_axes_filtered ?offsets ?allowed ~xdist ~ydist ~vectors ~n_layers () =
  let width = Array.length xdist * Array.length ydist in
  let offsets =
    match offsets with
    | Some o -> o
    | None -> Array.init n_layers (fun l -> l * width)
  in
  Pathgraph.Layered.solve ?allowed ~n_layers
    [| { relaxation = Axes { xdist; ydist }; vectors; offsets } |]

let solve_axes ?offsets ~xdist ~ydist ~vectors ~n_layers () =
  Option.get (solve_axes_filtered ?offsets ~xdist ~ydist ~vectors ~n_layers ())

(* ------------------------------------------------------------------ *)
(* (a) arena rows vs per-array vectors                                 *)
(* ------------------------------------------------------------------ *)

let oracle_vector = Oracle.Cost_naive.cost_vector

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
          let slab, offs = Sched.Problem.layer_slab problem ~data in
          List.mapi (fun w window -> (w, window)) windows
          |> List.for_all (fun (w, window) ->
                 let oracle = oracle_vector mesh window ~data in
                 let copy =
                   Sched.Problem.cost_vector problem ~window:w ~data
                 in
                 (* non-referencing windows must share the zero row *)
                 (Reftrace.Window.references window data > 0
                 || offs.(w) = 0)
                 && oracle = copy
                 && Array.for_all Fun.id
                      (Array.init m (fun c ->
                           slab.{offs.(w) + c} = oracle.(c)
                           && Sched.Problem.cost_entry problem ~window:w
                                ~data c
                              = oracle.(c)))
                 && Sched.Problem.candidates problem ~window:w ~data
                    = Sched.Processor_list.of_cost_vector oracle))
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
      let center, cost = Sched.Cost.argmin_of_marginals ~wrap ~cols ~rows m in
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
          Sched.Problem.merged_optimal_center problem ~data
          = vector_argmin (Sched.Problem.merged_vector problem ~data)
          && List.for_all
               (fun w ->
                 Sched.Problem.optimal_center problem ~window:w ~data
                 = vector_argmin
                     (Sched.Problem.cost_vector problem ~window:w ~data))
               (List.init n_windows Fun.id))
        (List.init (Sched.Problem.n_data problem) Fun.id))

(* ------------------------------------------------------------------ *)
(* (c) axis-table layered DP vs the full-table dense oracle            *)
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
      let xdist = Pim.Mesh.x_distance_table mesh
      and ydist = Pim.Mesh.y_distance_table mesh in
      let vectors =
        Array.init n_layers (fun w -> Array.sub flat (w * m) m)
      in
      let allowed ~layer j = mask.((layer * m) + j) in
      let buffer_of a =
        Bigarray.Array1.of_array Bigarray.Int Bigarray.C_layout a
      in
      let dense = Oracle.Layered.solve_dense ~dist ~vectors in
      let unfiltered_equal =
        solve_axes ~xdist ~ydist ~vectors:(buffer_of flat) ~n_layers ()
        = dense
      in
      let filtered_equal =
        solve_axes_filtered ~xdist ~ydist ~vectors:(buffer_of flat) ~n_layers
          ~allowed ()
        = Oracle.Layered.solve_dense_filtered ~dist ~vectors ~allowed
      in
      (* explicit offsets: store the layer rows in reverse order and point
         offsets.(w) at the right one — the compact-arena access pattern *)
      let rev = Array.make (n_layers * m) 0 in
      let offsets =
        Array.init n_layers (fun w -> (n_layers - 1 - w) * m)
      in
      Array.iteri
        (fun w off -> Array.blit flat (w * m) rev off m)
        offsets;
      let offsets_equal =
        solve_axes ~offsets ~xdist ~ydist ~vectors:(buffer_of rev) ~n_layers ()
        = dense
      in
      unfiltered_equal && filtered_equal && offsets_equal)

(* ------------------------------------------------------------------ *)
(* (c') separable relaxation on edge shapes, ties and emptied lines    *)
(* ------------------------------------------------------------------ *)

(* Shapes where the distance transform's sweeps degenerate: extents 1
   and 2 (a 2-ring is a line), single rows and columns, rings in either
   orientation, and an odd torus. *)
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
  ]

(* Vectors are random, tie-heavy (values in {0, 1}) or all equal; the
   mask is all-true, random, or empties whole rows and columns of some
   layers (possibly all of a layer, which must come back [None]). *)
let relax_instance_gen mesh =
  let open QCheck.Gen in
  let rows = Pim.Mesh.rows mesh and cols = Pim.Mesh.cols mesh in
  let m = rows * cols in
  int_range 1 5 >>= fun n_layers ->
  let cells = n_layers * m in
  oneof
    [
      array_size (return cells) (int_range 0 20);
      array_size (return cells) (int_range 0 1);
      map (fun v -> Array.make cells v) (int_range 0 9);
    ]
  >>= fun flat ->
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
    ]
  >>= fun mask -> return (n_layers, flat, mask)

let prop_relax_shapes (mesh, label) =
  let arb = QCheck.make ~print:layered_print (relax_instance_gen mesh) in
  QCheck.Test.make
    ~name:("separable relaxation equals solve_dense, " ^ label)
    ~count:60 arb (fun (n_layers, flat, mask) ->
      let m = Pim.Mesh.size mesh in
      let dist = Oracle.Mesh_distance.table mesh in
      let xdist = Pim.Mesh.x_distance_table mesh
      and ydist = Pim.Mesh.y_distance_table mesh in
      let vectors = Array.init n_layers (fun w -> Array.sub flat (w * m) m) in
      let allowed ~layer j = mask.((layer * m) + j) in
      let buffer = Bigarray.Array1.of_array Bigarray.Int Bigarray.C_layout flat in
      solve_axes ~xdist ~ydist ~vectors:buffer
        ~n_layers ()
      = Oracle.Layered.solve_dense ~dist ~vectors
      && solve_axes_filtered ~xdist ~ydist ~vectors:buffer ~n_layers ~allowed ()
         = Oracle.Layered.solve_dense_filtered ~dist ~vectors ~allowed)

(* The scratch buffers are per domain: the same solves fanned out over
   four domains answer exactly as they do serially. *)
let prop_relax_jobs_invariant =
  let mesh = torus35 in
  let arb =
    QCheck.make
      ~print:(fun l -> String.concat "\n" (List.map layered_print l))
      QCheck.Gen.(list_size (int_range 1 12) (relax_instance_gen mesh))
  in
  QCheck.Test.make ~name:"separable relaxation is identical at jobs 1 and 4"
    ~count:20 arb (fun instances ->
      let instances = Array.of_list instances in
      let m = Pim.Mesh.size mesh in
      let xdist = Pim.Mesh.x_distance_table mesh
      and ydist = Pim.Mesh.y_distance_table mesh in
      let solve i =
        let n_layers, flat, mask = instances.(i) in
        solve_axes_filtered ~xdist ~ydist
          ~vectors:(Bigarray.Array1.of_array Bigarray.Int Bigarray.C_layout flat)
          ~n_layers
          ~allowed:(fun ~layer j -> mask.((layer * m) + j))
          ()
      in
      let n = Array.length instances in
      Sched.Engine.map ~jobs:1 n solve = Sched.Engine.map ~jobs:4 n solve)

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
          (solve_axes
             ~xdist:(Pim.Mesh.x_distance_table mesh)
             ~ydist:(Pim.Mesh.y_distance_table mesh)
             ~vectors:
               (Bigarray.Array1.of_array Bigarray.Int Bigarray.C_layout flat)
             ~n_layers ()
          = Oracle.Layered.solve_dense
              ~dist:(Oracle.Mesh_distance.table mesh) ~vectors)
      in
      check (Pim.Mesh.torus ~rows:2 ~cols:2) ((1 lsl 18) + 1);
      check torus35 5)

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
      let allowed ~layer j = mask.((layer * width) + j) in
      let block =
        {
          Pathgraph.Layered.relaxation = Table dist;
          vectors = Bigarray.Array1.of_array Bigarray.Int Bigarray.C_layout flat;
          offsets = Array.init n_layers (fun l -> l * width);
        }
      in
      Pathgraph.Layered.solve ~n_layers [| block |]
      = Some (Oracle.Layered.solve_dense ~dist ~vectors)
      && Pathgraph.Layered.solve ~allowed ~n_layers [| block |]
         = Oracle.Layered.solve_dense_filtered ~dist ~vectors ~allowed)

(* Link faults that cut rank 0 off entirely, so the BFS table holds
   [unreachable_cost] pairs, plus one more dead link elsewhere. *)
let link_fault_cases =
  [
    (Gen.mesh44, Pim.Fault.create ~dead_links:[ (0, 1); (0, 4); (9, 10) ] (),
     "mesh");
    ( torus35,
      Pim.Fault.create ~dead_links:[ (0, 1); (0, 4); (0, 5); (0, 10); (7, 8) ] (),
      "torus" );
  ]

(* A link-faulted session relaxes over its BFS table: [solve_datum],
   filtered or not, equals the dense DP over that table and the
   session's own arena rows. *)
let prop_link_fault_solve_matches_dense (mesh, fault, label) =
  let arb =
    QCheck.pair
      (Gen.trace_arbitrary ~mesh ~max_data:4 ~max_windows:4 ~max_count:3 ())
      QCheck.small_nat
  in
  QCheck.Test.make
    ~name:("link-faulted solve_datum equals solve_dense, " ^ label)
    ~count:40 arb (fun (trace, salt) ->
      let problem = Sched.Problem.create ~fault mesh trace in
      let dist =
        match Sched.Problem.relaxation problem with
        | Pathgraph.Layered.Table d -> d
        | Axes _ -> Alcotest.fail "link faults must relax over the BFS table"
      in
      if Sched.Problem.distance problem 0 1 <> Sched.Problem.unreachable_cost
      then Alcotest.fail "the fault must disconnect rank 0";
      let allowed ~layer j = (((layer + 1) * 31) + (j * 17) + salt) mod 5 <> 0 in
      List.for_all
        (fun data ->
          let vectors = Oracle.Problem.layer_vectors problem ~data in
          Sched.Problem.solve_datum problem ~data
          = Some (Oracle.Layered.solve_dense ~dist ~vectors)
          && Sched.Problem.solve_datum ~allowed problem ~data
             = Oracle.Layered.solve_dense_filtered ~dist ~vectors ~allowed)
        (List.init (Sched.Problem.n_data problem) Fun.id))

(* Grouped refinement: [refine_centers] (axis relaxation on healthy and
   node-faulted contexts, BFS table under link faults) picks the same
   centers as the callback DP over [Problem.distance]; the rows are the
   datum's per-window arena rows. *)
let closure_centers problem rows =
  let m = Pim.Mesh.size (Sched.Problem.mesh problem) in
  let p =
    {
      Oracle.Layered.n_layers = Bigarray.Array1.dim rows / m;
      width = m;
      enter_cost = (fun j -> rows.{j});
      step_cost =
        (fun ~layer j k ->
          Sched.Problem.distance problem j k + rows.{(layer * m) + k});
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
      let m = Pim.Mesh.size mesh in
      List.for_all
        (fun data ->
          let nw = Sched.Problem.n_windows problem in
          let rows =
            Bigarray.Array1.create Bigarray.Int Bigarray.C_layout (nw * m)
          in
          for w = 0 to nw - 1 do
            Array.iteri
              (fun k c -> rows.{(w * m) + k} <- c)
              (Sched.Problem.cost_vector problem ~window:w ~data)
          done;
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
              let candidates =
                Sched.Processor_list.for_data mesh window ~data
              in
              let best =
                match
                  Sched.Processor_list.first_available memory candidates
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
(* Compact-slab structure                                              *)
(* ------------------------------------------------------------------ *)

(* The arena invariants [Problem.layer_slab] promises: one row per
   referencing window plus the shared zero row; non-referencing windows
   all point at offset 0; referencing rows are laid out back-to-back in
   window order; the zero row really is all zeros. *)
let prop_layer_slab_compact mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("layer_slab is compact with a shared zero row, " ^ label)
    ~count:40 arb (fun trace ->
      let problem = problem_of mesh trace in
      let m = Pim.Mesh.size mesh in
      let windows = Array.of_list (Reftrace.Trace.windows trace) in
      List.for_all
        (fun data ->
          let slab, offs = Sched.Problem.layer_slab problem ~data in
          let referencing =
            List.filter
              (fun w -> Reftrace.Window.references windows.(w) data > 0)
              (List.init (Array.length windows) Fun.id)
          in
          Bigarray.Array1.dim slab = (1 + List.length referencing) * m
          && Array.for_all Fun.id
               (Array.init m (fun i -> slab.{i} = 0))
          && List.for_all2
               (fun w slot -> offs.(w) = slot * m)
               referencing
               (List.init (List.length referencing) (fun s -> s + 1))
          && Array.for_all Fun.id
               (Array.mapi
                  (fun w off ->
                    Reftrace.Window.references windows.(w) data > 0
                    || off = 0)
                  offs))
        (List.init (Sched.Problem.n_data problem) Fun.id))

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
(* Merged-window caches vs the merge_list oracle                       *)
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
      List.for_all
        (fun data ->
          let oracle = oracle_vector mesh merged ~data in
          Sched.Problem.merged_vector problem ~data = oracle
          && Sched.Problem.merged_optimal_center problem ~data
             = vector_argmin oracle
          && Sched.Problem.merged_candidates problem ~data
             = Sched.Processor_list.of_cost_vector oracle)
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
  let xdist = Pim.Mesh.x_distance_table Gen.mesh44
  and ydist = Pim.Mesh.y_distance_table Gen.mesh44 in
  let m = Pim.Mesh.size Gen.mesh44 in
  let buffer n =
    Bigarray.Array1.of_array Bigarray.Int Bigarray.C_layout
      (Array.make n 1)
  in
  let rejects name f = Gen.case name (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (name ^ ": expected Invalid_argument"))
  in
  [
    rejects "solve_axes rejects a short flat buffer" (fun () ->
        solve_axes ~xdist ~ydist
          ~vectors:(buffer ((2 * m) - 1)) ~n_layers:2 ());
    rejects "solve_axes rejects a short offset table" (fun () ->
        solve_axes ~offsets:[| 0 |] ~xdist ~ydist
          ~vectors:(buffer (2 * m)) ~n_layers:2 ());
    rejects "solve_axes rejects an out-of-range offset" (fun () ->
        solve_axes ~offsets:[| 0; (m * 2) - 1 |] ~xdist
          ~ydist ~vectors:(buffer (2 * m)) ~n_layers:2 ());
    (* the sweeps need unit |a-b| or ring steps: any other table has no
       separable form and is refused, not silently mis-solved *)
    rejects "solve_axes rejects a scaled distance table" (fun () ->
        solve_axes
          ~xdist:(Array.map (Array.map (fun d -> 2 * d)) xdist)
          ~ydist ~vectors:(buffer (2 * m)) ~n_layers:2 ());
    rejects "solve_axes rejects a ragged distance table" (fun () ->
        solve_axes ~xdist
          ~ydist:(Array.map (fun r -> Array.sub r 0 2) ydist)
          ~vectors:(buffer (2 * m)) ~n_layers:2 ());
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

let unreferenced_datum_case =
  Gen.case "unreferenced datum slab is just the zero row" (fun () ->
      (* datum 1 is never referenced: its compact slab must be a single
         shared zero row with every window offset pointing at it *)
      let trace =
        Gen.trace Gen.mesh44 ~n_data:2 [ [ (0, 1, 2) ]; [ (0, 5, 1) ] ]
      in
      let problem = problem_of Gen.mesh44 trace in
      let slab, offs = Sched.Problem.layer_slab problem ~data:1 in
      Alcotest.(check int) "slab is one row"
        (Pim.Mesh.size Gen.mesh44)
        (Bigarray.Array1.dim slab);
      Alcotest.(check (array int)) "all offsets zero" (Array.make 2 0) offs;
      for i = 0 to Bigarray.Array1.dim slab - 1 do
        Alcotest.(check int) "zero row" 0 slab.{i}
      done)

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
               prop_layer_slab_compact mesh label;
               prop_path_cost_matches mesh label;
               prop_merged_matches mesh label;
             ])
           meshes;
         per_mesh (fun mesh label ->
             [
               prop_argmin_matches_vector mesh label;
               prop_marginals_oracle mesh label;
             ]);
         List.map
           (fun (mesh, label) -> prop_argmin_matches_vector mesh label)
           edge_meshes;
         List.map prop_relax_shapes relax_shapes;
         List.map prop_refine_routes_agree refine_route_cases;
         [ prop_relax_jobs_invariant ];
         [
           prop_axis_cost_oracle ~wrap:false "line";
           prop_axis_cost_oracle ~wrap:true "circle";
           prop_merge_equals_replay;
         ];
       ])
  @ solve_axes_validation_cases
  @ [ merged_memo_case; unreferenced_datum_case; outsized_solve_case ]
  @ List.map Gen.to_alcotest
      (prop_table_matches_dense
      :: prop_refine_routes_agree
           ( Gen.mesh44,
             Pim.Fault.create ~dead_nodes:[ 6 ] ~dead_links:[ (0, 1); (0, 4) ] (),
             "dead links" )
      :: List.map prop_link_fault_solve_matches_dense link_fault_cases)
