let check_int = Alcotest.(check int)
let mesh = Gen.mesh44

let test_of_cost_vector_sorted () =
  let list = Oracle.Candidates.of_cost_vector [| 5; 1; 3; 1 |] in
  Alcotest.(check (list int)) "sorted, ties by rank" [ 1; 3; 2; 0 ] list

let test_for_data_head_is_center () =
  let w = Gen.window ~n_data:1 [ (0, 9, 3); (0, 2, 1) ] in
  match Oracle.Candidates.for_data mesh w ~data:0 with
  | head :: _ ->
      check_int "head = local optimal center"
        (Sched.Cost.local_optimal_center mesh w ~data:0)
        head
  | [] -> Alcotest.fail "non-empty list expected"

let test_first_available_skips_full () =
  let memory = Pim.Memory.create mesh ~capacity:1 in
  ignore (Pim.Memory.allocate memory 4);
  Alcotest.(check (option int))
    "skips full head" (Some 7)
    (Oracle.Candidates.first_available memory [ 4; 7; 2 ]);
  Alcotest.(check (option int))
    "none" None
    (Oracle.Candidates.first_available memory [ 4 ])

let test_assign_allocates () =
  let memory = Pim.Memory.create mesh ~capacity:1 in
  check_int "first" 4 (Oracle.Candidates.assign memory [ 4; 7 ]);
  check_int "then next" 7 (Oracle.Candidates.assign memory [ 4; 7 ]);
  Alcotest.check_raises "exhausted"
    (Failure "Candidates.assign: all candidate processors full")
    (fun () -> ignore (Oracle.Candidates.assign memory [ 4; 7 ]))

let prop_full_list_always_assignable =
  QCheck.Test.make ~name:"complete list always assigns under headroom"
    ~count:100
    QCheck.(int_range 1 32)
    (fun n_data ->
      let capacity = Pim.Memory.capacity_for ~data_count:n_data ~mesh ~headroom:1 in
      let memory = Pim.Memory.create mesh ~capacity in
      let complete = List.init (Pim.Mesh.size mesh) Fun.id in
      (* every datum finds a slot when capacity * procs >= n_data *)
      List.for_all
        (fun _ ->
          match Oracle.Candidates.first_available memory complete with
          | Some rank -> Pim.Memory.allocate memory rank
          | None -> false)
        (List.init n_data Fun.id))

(* The counting pass must reproduce the comparison sort exactly, ties
   included; costs beyond the density threshold exercise the fallback. *)
let reference_of_costs ~n cost =
  List.sort
    (fun a b ->
      let c = Int.compare (cost a) (cost b) in
      if c <> 0 then c else Int.compare a b)
    (List.init n Fun.id)

let prop_of_costs_matches_comparison_sort =
  QCheck.Test.make
    ~name:"of_costs: counting pass = comparison sort, ties pinned"
    ~count:300
    QCheck.(
      pair (int_range 0 2)
        (list_of_size
           (Gen.int_range 1 64)
           (int_range 0 1_000_000)))
    (fun (mode, vals) ->
      (* mode 0: tie-heavy; 1: dense; 2: sparse (comparison fallback) *)
      let squash =
        match mode with 0 -> 4 | 1 -> 201 | _ -> 1_000_001
      in
      let costs = Array.of_list (List.map (fun v -> v mod squash) vals) in
      let n = Array.length costs in
      let cost = Array.get costs in
      Oracle.Candidates.of_costs ~n cost = reference_of_costs ~n cost)

let test_place_allocates () =
  let memory = Pim.Memory.create mesh ~capacity:1 in
  let row = Pathgraph.Layered.Full (Array.init 16 (fun r -> 16 - r)) in
  check_int "cheapest" 15 (Sched.Processor_list.place memory row);
  check_int "then the next cheapest" 14 (Sched.Processor_list.place memory row);
  for _ = 1 to 14 do
    ignore (Sched.Processor_list.place memory row)
  done;
  Alcotest.(check (option int)) "none left" None
    (Sched.Processor_list.choose memory row);
  Alcotest.check_raises "exhausted"
    (Failure "Processor_list.place: every processor is full") (fun () ->
      ignore (Sched.Processor_list.place memory row))

(* The head with room off the row equals the first free rank of the
   oracle's full sorted list, on random occupancy: healthy sessions (axis
   sums), node faults (dead ranks banned in the memory, cut from the
   list) and node plus link faults ([Full] rows holding the unreachable
   sentinel), on a mesh, a torus and a line, for every (datum, window)
   cell including the merged window. *)
let prop_choose_is_list_head =
  let meshes =
    [| Gen.mesh44; Pim.Mesh.torus ~rows:3 ~cols:5; Pim.Mesh.create ~rows:1 ~cols:7 |]
  in
  QCheck.Test.make ~name:"choose = first_available over the oracle list"
    ~count:200
    QCheck.(
      triple (int_range 0 2) (int_range 0 2) (pair small_nat (int_range 1 3)))
    (fun (mode, m, (seed, capacity)) ->
      let mesh = meshes.(m) in
      let rng = Random.State.make [| seed |] in
      let trace =
        QCheck.Gen.generate1 ~rand:rng
          (Gen.trace_gen ~mesh ~max_data:5 ~max_windows:3 ~max_count:4 ())
      in
      let fault =
        match mode with
        | 0 -> Pim.Fault.none
        | 1 -> Pim.Fault.inject ~seed ~node_rate:0.3 ~link_rate:0. mesh
        | _ -> Pim.Fault.inject ~seed ~node_rate:0.3 ~link_rate:0.2 mesh
      in
      let problem =
        Sched.Problem.create ~policy:(Sched.Problem.Bounded capacity) ~fault
          mesh trace
      in
      let lists = Oracle.Candidates.of_problem problem in
      let memory = Sched.Problem.fresh_memory problem in
      (* random occupancy, some ranks full *)
      for rank = 0 to Pim.Mesh.size mesh - 1 do
        for _ = 1 to Random.State.int rng (capacity + 1) do
          ignore (Pim.Memory.allocate memory rank)
        done
      done;
      List.for_all
        (fun data ->
          List.for_all
            (fun window ->
              Sched.Processor_list.choose memory
                (Sched.Problem.row problem ~window ~data)
              = Oracle.Candidates.first_available memory
                  (Oracle.Candidates.candidates lists ~window ~data))
            (List.init (Sched.Problem.n_windows problem + 1) Fun.id))
        (List.init (Sched.Problem.n_data problem) Fun.id))

(* The link-faulted grouping repair's order without the list: every
   entry of the oracle's [distance_row] (the BFS table's row under link
   faults, per-axis hops otherwise) is the session's distance from the
   target, and [place] over it lands where the oracle's nearest-rank
   list (alive ranks sorted by (distance, rank)) first has room. Placements run in
   sequence from the same random occupancy in two trackers, so every
   step sees the occupancy the previous placements left, until the
   memories fill. Healthy, node faults and node plus link faults, on a
   mesh, a torus and a line. *)
let prop_distance_row_place =
  let meshes =
    [| Gen.mesh44; Pim.Mesh.torus ~rows:3 ~cols:5; Pim.Mesh.create ~rows:1 ~cols:7 |]
  in
  QCheck.Test.make ~name:"place over distance_row = oracle ranks_near head"
    ~count:200
    QCheck.(
      triple (int_range 0 2) (int_range 0 2) (pair small_nat (int_range 1 3)))
    (fun (mode, m, (seed, capacity)) ->
      let mesh = meshes.(m) in
      let rng = Random.State.make [| seed |] in
      let trace =
        QCheck.Gen.generate1 ~rand:rng
          (Gen.trace_gen ~mesh ~max_data:5 ~max_windows:3 ~max_count:4 ())
      in
      let fault =
        match mode with
        | 0 -> Pim.Fault.none
        | 1 -> Pim.Fault.inject ~seed ~node_rate:0.3 ~link_rate:0. mesh
        | _ -> Pim.Fault.inject ~seed ~node_rate:0.3 ~link_rate:0.2 mesh
      in
      let problem =
        Sched.Problem.create ~policy:(Sched.Problem.Bounded capacity) ~fault
          mesh trace
      in
      let size = Pim.Mesh.size mesh in
      let rows_agree =
        List.for_all
          (fun target ->
            let row = Oracle.Candidates.distance_row problem ~target in
            List.for_all
              (fun r ->
                Pathgraph.Layered.entry row r
                = Sched.Problem.distance problem target r)
              (List.init size Fun.id))
          (List.init size Fun.id)
      in
      let memory = Sched.Problem.fresh_memory problem in
      let oracle = Sched.Problem.fresh_memory problem in
      for rank = 0 to size - 1 do
        for _ = 1 to Random.State.int rng (capacity + 1) do
          ignore (Pim.Memory.allocate memory rank);
          ignore (Pim.Memory.allocate oracle rank)
        done
      done;
      let rec placements ok =
        let target = Random.State.int rng size in
        let row = Oracle.Candidates.distance_row problem ~target in
        let near = Oracle.Candidates.ranks_near problem ~target in
        match Sched.Processor_list.choose memory row with
        | None -> ok && Oracle.Candidates.first_available oracle near = None
        | Some _ ->
            let placed = Sched.Processor_list.place memory row in
            placements (ok && placed = Oracle.Candidates.assign oracle near)
      in
      rows_agree && placements true)

(* The shell walk is the oracle's nearest-rank list head: placements in
   sequence from the same random occupancy in two trackers, the walk
   keeping one floor per target (as the repair does for a window) and
   the oracle walking [ranks_near], until the memories fill. Targets
   come from a pool of three, so most are placed onto several times and
   start from a raised floor. Meshes and tori with extents 1, 2, odd and
   even, and a 1x7 line; healthy and node-faulted. *)
let prop_place_near =
  let meshes =
    [|
      Gen.mesh44;
      Pim.Mesh.create ~rows:3 ~cols:5;
      Pim.Mesh.torus ~rows:4 ~cols:6;
      Pim.Mesh.torus ~rows:3 ~cols:5;
      Pim.Mesh.torus ~rows:2 ~cols:7;
      Pim.Mesh.torus ~rows:1 ~cols:6;
      Pim.Mesh.torus ~rows:5 ~cols:1;
      Pim.Mesh.create ~rows:1 ~cols:7;
    |]
  in
  QCheck.Test.make ~name:"place_near = oracle ranks_near head, with floors"
    ~count:300
    QCheck.(
      triple bool
        (int_range 0 (Array.length meshes - 1))
        (pair small_nat (int_range 1 3)))
    (fun (faulty, m, (seed, capacity)) ->
      let mesh = meshes.(m) in
      let rng = Random.State.make [| seed |] in
      let trace =
        QCheck.Gen.generate1 ~rand:rng
          (Gen.trace_gen ~mesh ~max_data:3 ~max_windows:1 ~max_count:2 ())
      in
      let fault =
        if faulty then Pim.Fault.inject ~seed ~node_rate:0.3 ~link_rate:0. mesh
        else Pim.Fault.none
      in
      let problem =
        Sched.Problem.create ~policy:(Sched.Problem.Bounded capacity) ~fault
          mesh trace
      in
      let size = Pim.Mesh.size mesh in
      let memory = Sched.Problem.fresh_memory problem in
      let oracle = Sched.Problem.fresh_memory problem in
      for rank = 0 to size - 1 do
        for _ = 1 to Random.State.int rng (capacity + 1) do
          ignore (Pim.Memory.allocate memory rank);
          ignore (Pim.Memory.allocate oracle rank)
        done
      done;
      let pool = Array.init 3 (fun _ -> Random.State.int rng size) in
      let floor = Array.make size 0 and probes = ref 0 in
      let rec placements ok =
        let target = pool.(Random.State.int rng 3) in
        let near = Oracle.Candidates.ranks_near problem ~target in
        match Oracle.Candidates.first_available oracle near with
        | None ->
            ok
            && (try
                  ignore
                    (Sched.Processor_list.place_near memory ~floor ~probes
                       ~target);
                  false
                with Failure _ -> true)
        | Some _ ->
            let placed =
              Sched.Processor_list.place_near memory ~floor ~probes ~target
            in
            placements
              (ok
              && placed = Oracle.Candidates.assign oracle near
              && floor.(target) = Sched.Problem.distance problem target placed
              )
      in
      placements true)

(* Through a chain of fault patches (more dead nodes, then dead links),
   the oracle's carried lists equal lists built fresh on the patched
   session, and the patched session's head with room equals the first
   free rank of the carried list. *)
let prop_patched_lists =
  let mesh = Gen.mesh44 in
  QCheck.Test.make ~name:"patched sessions: choose = carried oracle list head"
    ~count:100
    (QCheck.pair
       (Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:3 ~max_count:4 ())
       QCheck.small_nat)
    (fun (trace, seed) ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
      let capacity = Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2 in
      let base =
        Sched.Problem.create ~policy:(Sched.Problem.Bounded capacity) mesh trace
      in
      let cells p =
        List.concat_map
          (fun data ->
            List.init (Sched.Problem.n_windows p + 1) (fun window ->
                (window, data)))
          (List.init (Sched.Problem.n_data p) Fun.id)
      in
      let agree lists =
        let p = Oracle.Candidates.problem lists in
        let fresh =
          Oracle.Candidates.of_problem
            (Sched.Problem.of_context ~fault:(Sched.Problem.fault p)
               (Sched.Problem.context p))
        in
        let memory = Sched.Problem.fresh_memory p in
        List.for_all
          (fun (window, data) ->
            let carried = Oracle.Candidates.candidates lists ~window ~data in
            carried = Oracle.Candidates.candidates fresh ~window ~data
            && Sched.Processor_list.choose memory
                 (Sched.Problem.row p ~window ~data)
               = Oracle.Candidates.first_available memory carried)
          (cells p)
      in
      let faults =
        [
          Pim.Fault.inject ~seed ~node_rate:0.2 ~link_rate:0. mesh;
          Pim.Fault.inject ~seed ~node_rate:0.4 ~link_rate:0. mesh;
          Pim.Fault.inject ~seed ~node_rate:0.4 ~link_rate:0.2 mesh;
        ]
      in
      let lists = Oracle.Candidates.of_problem base in
      Oracle.Candidates.prefetch_referenced lists;
      Oracle.Candidates.prefetch_merged lists;
      snd
        (List.fold_left
           (fun (lists, ok) fault ->
             let patched = Oracle.Candidates.with_fault_patch lists fault in
             (patched, ok && agree patched))
           (lists, agree lists)
           faults))

let suite =
  [
    Gen.case "of_cost_vector sorted" test_of_cost_vector_sorted;
    Gen.to_alcotest prop_of_costs_matches_comparison_sort;
    Gen.case "for_data head is center" test_for_data_head_is_center;
    Gen.case "first_available skips full" test_first_available_skips_full;
    Gen.case "assign allocates" test_assign_allocates;
    Gen.case "place allocates at the cheapest free rank" test_place_allocates;
    Gen.to_alcotest prop_choose_is_list_head;
    Gen.to_alcotest prop_patched_lists;
    Gen.to_alcotest prop_distance_row_place;
    Gen.to_alcotest prop_place_near;
    Gen.to_alcotest prop_full_list_always_assignable;
  ]
