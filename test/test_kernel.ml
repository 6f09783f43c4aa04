(* Cross-checks of the separable cost kernel against the
   [Oracle.Cost_naive] walk: byte-identical cost vectors, local optima
   (including tie order) and path costs on random meshes and tori; the
   session rows, centers and candidate lists [Problem] serves, and the
   marginal-priced grouping greedy, pinned to the same oracle; plus the
   cache-sharing and build-counter contracts. *)

let check_int = Alcotest.(check int)

(* Random instance: a mesh or torus of arbitrary small shape plus a trace
   over it. Non-square shapes matter (they catch x/y transpositions);
   extent 1 and 2 exercise the circular prefix sums' edge cases. *)
let instance_gen =
  let open QCheck.Gen in
  int_range 1 4 >>= fun rows ->
  int_range 1 4 >>= fun cols ->
  bool >>= fun wrap ->
  let mesh =
    if wrap then Pim.Mesh.torus ~rows ~cols
    else Pim.Mesh.create ~rows ~cols
  in
  Gen.trace_gen ~mesh ~max_data:4 ~max_windows:4 ~max_count:3 ()
  >>= fun trace -> return (mesh, trace)

let instance_print (mesh, trace) =
  Format.asprintf "%a / %a" Pim.Mesh.pp mesh Reftrace.Trace.pp trace

let instance_arbitrary = QCheck.make ~print:instance_print instance_gen

let for_all_pairs (mesh, trace) f =
  let n = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
  let ok = ref true in
  List.iter
    (fun w ->
      for data = 0 to n - 1 do
        if not (f mesh w ~data) then ok := false
      done)
    (Reftrace.Trace.windows trace);
  !ok

let prop_cost_vectors_equal =
  QCheck.Test.make ~name:"separable cost_vector = Naive cost_vector"
    ~count:200 instance_arbitrary (fun inst ->
      for_all_pairs inst (fun mesh w ~data ->
          Sched.Cost.cost_vector mesh w ~data
          = Oracle.Cost_naive.cost_vector mesh w ~data))

let prop_reference_cost_equals_vector_entry =
  QCheck.Test.make
    ~name:"separable reference_cost = its cost_vector entry, every center"
    ~count:100 instance_arbitrary (fun inst ->
      for_all_pairs inst (fun mesh w ~data ->
          let v = Oracle.Cost_naive.cost_vector mesh w ~data in
          let ok = ref true in
          for center = 0 to Array.length v - 1 do
            if Sched.Cost.reference_cost mesh w ~data ~center <> v.(center)
            then ok := false
          done;
          !ok))

let prop_local_optima_equal =
  QCheck.Test.make
    ~name:"separable local_optimal_center = Naive (same tie order)"
    ~count:200 instance_arbitrary (fun inst ->
      for_all_pairs inst (fun mesh w ~data ->
          Sched.Cost.local_optimal_center mesh w ~data
          = Oracle.Cost_naive.local_optimal_center mesh w ~data))

let prop_path_costs_equal =
  QCheck.Test.make ~name:"separable path_cost = Naive path_cost" ~count:100
    instance_arbitrary (fun (mesh, trace) ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
      let windows = Reftrace.Trace.windows trace in
      let ok = ref true in
      for data = 0 to n - 1 do
        (* two trajectories: the per-window local optima, and all-zero *)
        let optima =
          List.map
            (fun w -> (w, Oracle.Cost_naive.local_optimal_center mesh w ~data))
            windows
        in
        let home = List.map (fun w -> (w, 0)) windows in
        List.iter
          (fun pairs ->
            if
              Sched.Cost.path_cost mesh pairs ~data
              <> Oracle.Cost_naive.path_cost mesh pairs ~data
            then ok := false)
          [ optima; home ]
      done;
      !ok)

let prop_marginals_conserve_mass =
  QCheck.Test.make ~name:"Window.marginals sum to the reference total"
    ~count:100 instance_arbitrary (fun inst ->
      for_all_pairs inst (fun mesh w ~data ->
          let mx, my =
            Reftrace.Window.marginals w ~data ~cols:(Pim.Mesh.cols mesh)
              ~rows:(Pim.Mesh.rows mesh)
          in
          let sum = Array.fold_left ( + ) 0 in
          sum mx = Reftrace.Window.references w data && sum mx = sum my))

(* Session-level pins: every row [Problem] serves — per-window and
   merged-window cost rows, optimal centers (axis minima on a healthy
   session) and the processor-list head with room — equals what
   the direct walk gives, with the alive-masked ascending argmin and the
   first free rank of the alive-filtered oracle list on a faulted
   session. Caches are filled on the domain pool first, so jobs 1 and 4
   both go through the parallel fills. *)
let oracle_center alive v =
  let best = ref (-1) in
  Array.iteri
    (fun i c -> if alive i && (!best < 0 || c < v.(!best)) then best := i)
    v;
  !best

let rows_match_oracle problem =
  let mesh = Sched.Problem.mesh problem in
  let alive = Sched.Problem.rank_alive problem in
  let candidates v =
    List.filter alive (Oracle.Candidates.of_cost_vector v)
  in
  let memory = Sched.Problem.fresh_memory problem in
  Sched.Problem.prefetch_referenced problem;
  Sched.Problem.prefetch_centers problem;
  Sched.Problem.prefetch_merged problem;
  let nw = Sched.Problem.n_windows problem in
  List.for_all
    (fun data ->
      List.for_all
        (fun w ->
          let window =
            if w = nw then Sched.Problem.merged problem
            else Sched.Problem.window problem w
          in
          let v = Oracle.Cost_naive.cost_vector mesh window ~data in
          Sched.Processor_list.choose memory
            (Sched.Problem.row problem ~window:w ~data)
          = Oracle.Candidates.first_available memory (candidates v)
          && Sched.Problem.optimal_center problem ~window:w ~data
             = oracle_center alive v
          && Sched.Problem.cost_vector problem ~window:w ~data = v)
        (List.init (nw + 1) Fun.id))
    (List.init (Sched.Problem.n_data problem) Fun.id)

let torus35 = Pim.Mesh.torus ~rows:3 ~cols:5

(* (label, mesh, dead ranks) *)
let session_meshes =
  [ ("mesh", Gen.mesh44, [ 0; 5; 6; 15 ]); ("torus", torus35, [ 2; 7 ]) ]

(* How a session is opened: fresh healthy, bounded, node-faulted, or
   patched onto the node fault from a warmed healthy session. *)
let session_kinds =
  [
    ("healthy", fun ~jobs ~dead:_ mesh trace ->
        Sched.Problem.create ~jobs mesh trace);
    ( "bounded",
      fun ~jobs ~dead:_ mesh trace ->
        let n = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
        let capacity = Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2 in
        Sched.Problem.create ~policy:(Sched.Problem.Bounded capacity) ~jobs
          mesh trace );
    ( "node-faulted",
      fun ~jobs ~dead mesh trace ->
        Sched.Problem.create ~jobs
          ~fault:(Pim.Fault.create ~dead_nodes:dead ())
          mesh trace );
    ( "with_fault_patch",
      fun ~jobs ~dead mesh trace ->
        let base = Sched.Problem.create ~jobs mesh trace in
        ignore (rows_match_oracle base);
        Sched.Problem.prefetch_all base;
        Sched.Problem.with_fault_patch base
          (Pim.Fault.create ~dead_nodes:dead ()) );
  ]

let prop_session_rows (kind, open_session) (label, mesh, dead) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s session rows = Cost_naive, %s" kind label)
    ~count:25
    (Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 ())
    (fun trace ->
      List.for_all
        (fun jobs -> rows_match_oracle (open_session ~jobs ~dead mesh trace))
        [ 1; 4 ])

(* The marginal-priced greedy (healthy sessions) makes exactly the
   decisions of the vector-priced one, datum by datum, under both center
   policies — so the [Lomcds_grouped]/[Gomcds_grouped] schedules built
   from those groups are the vector-priced ones too. *)
let prop_grouping_matches_vector_greedy =
  QCheck.Test.make
    ~name:"marginal-priced grouping = vector-priced greedy oracle" ~count:100
    instance_arbitrary (fun (mesh, trace) ->
      let problem = Sched.Problem.create mesh trace in
      List.for_all
        (fun data ->
          List.for_all
            (fun centers ->
              Sched.Grouping.groups problem ~data ~centers
              = Oracle.Grouping.groups problem ~data ~centers)
            [ `Local; `Global ])
        (List.init (Sched.Problem.n_data problem) Fun.id))

(* Node faults keep distances, so the marginal-priced greedy runs on a
   node-faulted session too, its centers masked to alive ranks: group for
   group it equals the vector-priced oracle with the alive-masked argmin,
   under both center policies, on a mesh and a torus. *)
let prop_grouping_node_faults (label, mesh, dead) =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "node-faulted grouping = masked vector greedy, %s" label)
    ~count:50
    (Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:5 ~max_count:3 ())
    (fun trace ->
      let problem =
        Sched.Problem.create
          ~fault:(Pim.Fault.create ~dead_nodes:dead ())
          mesh trace
      in
      List.for_all
        (fun data ->
          List.for_all
            (fun centers ->
              Sched.Grouping.groups problem ~data ~centers
              = Oracle.Grouping.groups problem ~data ~centers)
            [ `Local; `Global ])
        (List.init (Sched.Problem.n_data problem) Fun.id))

let prop_problem_path_cost_matches_cost =
  QCheck.Test.make
    ~name:"Problem.path_cost / trajectory_cost = Cost.path_cost" ~count:100
    instance_arbitrary (fun (mesh, trace) ->
      let problem = Sched.Problem.create mesh trace in
      let n = Sched.Problem.n_data problem in
      let windows = Reftrace.Trace.windows trace in
      let ok = ref true in
      for data = 0 to n - 1 do
        let centers =
          List.mapi
            (fun w window ->
              (w, window, Sched.Cost.local_optimal_center mesh window ~data))
            windows
        in
        let by_index = List.map (fun (w, _, c) -> (w, c)) centers in
        let by_window = List.map (fun (_, win, c) -> (win, c)) centers in
        if
          Sched.Problem.path_cost problem ~data by_index
          <> Sched.Cost.path_cost mesh by_window ~data
        then ok := false;
        let traj =
          Array.of_list (List.map (fun (_, _, c) -> c) centers)
        in
        if
          Sched.Problem.trajectory_cost problem ~data traj
          <> Sched.Cost.path_cost mesh by_window ~data
        then ok := false
      done;
      !ok)

(* -------------------------------------------------------------- *)
(* Axis-cost unit cases (hand-checked)                             *)
(* -------------------------------------------------------------- *)

let test_axis_cost_line () =
  Alcotest.(check (array int))
    "E=2" [| 3; 2 |]
    (Sched.Cost.axis_cost ~wrap:false [| 2; 3 |]);
  Alcotest.(check (array int))
    "E=4" [| 11; 7; 7; 7 |]
    (* m = [1;2;0;3]: cost(c) = Σ m(j)·|c-j| *)
    (Sched.Cost.axis_cost ~wrap:false [| 1; 2; 0; 3 |])

let test_axis_cost_circle () =
  Alcotest.(check (array int))
    "E=2 ring" [| 3; 2 |]
    (Sched.Cost.axis_cost ~wrap:true [| 2; 3 |]);
  Alcotest.(check (array int))
    "E=4 ring" [| 1; 3; 3; 1 |]
    (Sched.Cost.axis_cost ~wrap:true [| 1; 0; 0; 1 |]);
  Alcotest.(check (array int))
    "E=3 ring" [| 2; 2; 2 |]
    (* m = [1;1;1]: every center sees the other two points at distance 1 *)
    (Sched.Cost.axis_cost ~wrap:true [| 1; 1; 1 |])

let test_vector_of_marginals_layout () =
  (* 2x3 mesh (rows=2, cols=3), weight at (x=2, y=1) = rank 5 *)
  let v =
    Sched.Cost.vector_of_marginals ~wrap:false ([| 0; 0; 1 |], [| 0; 1 |])
  in
  Alcotest.(check (array int)) "row-major assembly" [| 3; 2; 1; 2; 1; 0 |] v

(* -------------------------------------------------------------- *)
(* Cache-sharing and counter regressions                           *)
(* -------------------------------------------------------------- *)

let shared_trace () =
  Gen.trace Gen.mesh44 ~n_data:2
    [ [ (0, 3, 2); (1, 7, 1) ]; [ (0, 12, 4) ]; [ (1, 0, 1) ] ]

let test_with_policy_and_jobs_share_caches () =
  let problem = Sched.Problem.create Gen.mesh44 (shared_trace ()) in
  (* cost_vector copies a row out, so sharing is observed through the
     rows themselves and through the center cache: a center computed
     once is served to the derived sessions without another argmin *)
  let c = Sched.Problem.optimal_center problem ~window:0 ~data:0 in
  Sched.Problem.prefetch_all problem;
  (* two windows of datum 0 and the merged window (index 3) of datum 1 *)
  let rows p =
    List.map
      (fun (window, data) -> Sched.Problem.row p ~window ~data)
      [ (0, 0); (1, 0); (3, 1) ]
  in
  let same name p =
    Alcotest.(check bool)
      (name ^ " serves the same rows") true
      (List.for_all2 ( == ) (rows problem) (rows p))
  in
  let bounded =
    Sched.Problem.with_policy problem (Sched.Problem.Bounded 2)
  in
  let jobs2 = Sched.Problem.with_jobs problem 2 in
  let cached_center name p =
    Obs.enabled := true;
    Obs.reset ();
    let c' =
      Fun.protect
        ~finally:(fun () -> Obs.enabled := false)
        (fun () -> Sched.Problem.optimal_center p ~window:0 ~data:0)
    in
    Alcotest.(check int) (name ^ " serves the same center") c c';
    Alcotest.(check int)
      (name ^ " serves it from the cache") 0
      (Obs.Metrics.counter (Obs.Metrics.snapshot ()) "cost.argmin_fast")
  in
  cached_center "with_policy" bounded;
  same "with_policy" bounded;
  cached_center "with_jobs" jobs2;
  same "with_jobs" jobs2;
  (* node faults keep routers: every row stays clean across the patch *)
  same "a clean-row with_fault_patch"
    (Sched.Problem.with_fault_patch problem
       (Pim.Fault.create ~dead_nodes:[ 3; 12 ] ()))

let metric name snapshot = Obs.Metrics.counter snapshot name

let test_build_counters () =
  Obs.enabled := true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.enabled := false)
    (fun () ->
      let trace = shared_trace () in
      let sep = Sched.Problem.create Gen.mesh44 trace in
      Sched.Problem.prefetch_all sep;
      Sched.Problem.prefetch_all sep;
      let snap = Obs.Metrics.snapshot () in
      (* 4 of the 2 data x 3 window pairs carry references; the other two
         read the session's zero row and charge no build. Each is built
         exactly once despite the second prefetch, as an axis sum of
         4 + 4 words; the zero row is charged once, when the session
         opens. *)
      check_int "separable builds" 4 (metric "cost.separable_builds" snap);
      check_int "marginal misses" 4 (metric "problem.marginals_miss" snap);
      check_int "arena bytes"
        (8 * (4 + 1) * (4 + 4))
        (metric "problem.arena_bytes" snap))

let suite =
  [
    Gen.case "axis cost, line" test_axis_cost_line;
    Gen.case "axis cost, ring" test_axis_cost_circle;
    Gen.case "vector assembly layout" test_vector_of_marginals_layout;
    Gen.case "with_policy/with_jobs share caches"
      test_with_policy_and_jobs_share_caches;
    Gen.case "kernel build counters" test_build_counters;
    Gen.to_alcotest prop_cost_vectors_equal;
    Gen.to_alcotest prop_reference_cost_equals_vector_entry;
    Gen.to_alcotest prop_local_optima_equal;
    Gen.to_alcotest prop_path_costs_equal;
    Gen.to_alcotest prop_marginals_conserve_mass;
    Gen.to_alcotest prop_grouping_matches_vector_greedy;
    Gen.to_alcotest prop_problem_path_cost_matches_cost;
  ]
  @ List.map
      (fun m -> Gen.to_alcotest (prop_grouping_node_faults m))
      session_meshes
  @ List.concat_map
      (fun kind ->
        List.map
          (fun m -> Gen.to_alcotest (prop_session_rows kind m))
          session_meshes)
      session_kinds
