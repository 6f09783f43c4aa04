let check_int = Alcotest.(check int)
let mesh = Gen.mesh44

(* datum 0 referenced twice by rank 5 and once by rank 0 *)
let w = Gen.window ~n_data:2 [ (0, 5, 2); (0, 0, 1) ]

let test_reference_cost () =
  (* center rank 5 (=(1,1)): 0 for the local refs + dist(5,0)=2 for rank 0 *)
  check_int "at rank 5" 2 (Sched.Cost.reference_cost mesh w ~data:0 ~center:5);
  (* center rank 0: 2 refs * dist 2 + 0 *)
  check_int "at rank 0" 4 (Sched.Cost.reference_cost mesh w ~data:0 ~center:0)

let test_cost_vector_matches_pointwise () =
  let v = Sched.Cost.cost_vector mesh w ~data:0 in
  check_int "length" 16 (Array.length v);
  Array.iteri
    (fun center expected ->
      check_int
        (Printf.sprintf "center %d" center)
        expected
        (Sched.Cost.reference_cost mesh w ~data:0 ~center))
    v

let test_unreferenced_datum_is_free () =
  let v = Sched.Cost.cost_vector mesh w ~data:1 in
  Array.iter (fun c -> check_int "zero" 0 c) v;
  check_int "center defaults to 0" 0
    (Sched.Cost.local_optimal_center mesh w ~data:1)

let test_local_optimal_center () =
  check_int "rank 5 wins" 5 (Sched.Cost.local_optimal_center mesh w ~data:0)

let test_local_optimal_tie_breaks_low_rank () =
  (* two symmetric references: several centers tie; lowest rank wins *)
  let w = Gen.window ~n_data:1 [ (0, 0, 1); (0, 3, 1) ] in
  let v = Sched.Cost.cost_vector mesh w ~data:0 in
  let c = Sched.Cost.local_optimal_center mesh w ~data:0 in
  check_int "is argmin" v.(c)
    (Array.fold_left min max_int v);
  check_int "lowest tied rank" 0 c

let test_path_cost () =
  let w1 = Gen.window ~n_data:1 [ (0, 0, 1) ] in
  let w2 = Gen.window ~n_data:1 [ (0, 15, 1) ] in
  (* stay at 0: ref 0 + ref 6 = 6; move to 15: ref 0 + move 6 + ref 0 = 6 *)
  check_int "stay" 6 (Sched.Cost.path_cost mesh [ (w1, 0); (w2, 0) ] ~data:0);
  check_int "move" 6 (Sched.Cost.path_cost mesh [ (w1, 0); (w2, 15) ] ~data:0);
  Alcotest.check_raises "empty"
    (Invalid_argument "Cost.path_cost: empty window list") (fun () ->
      ignore (Sched.Cost.path_cost mesh [] ~data:0))

let prop_center_is_argmin =
  let arb = Gen.single_datum_window_arbitrary ~max_count:5 () in
  QCheck.Test.make ~name:"local optimal center minimizes cost vector"
    ~count:200 arb (fun w ->
      let v = Sched.Cost.cost_vector mesh w ~data:0 in
      let c = Sched.Cost.local_optimal_center mesh w ~data:0 in
      Array.for_all (fun x -> v.(c) <= x) v)

let prop_cost_linear_in_merge =
  let arb = Gen.single_datum_window_arbitrary ~max_count:5 () in
  QCheck.Test.make ~name:"cost vectors add under window merge" ~count:200
    (QCheck.pair arb arb) (fun (a, b) ->
      let m = Reftrace.Window.merge a b in
      let va = Sched.Cost.cost_vector mesh a ~data:0 in
      let vb = Sched.Cost.cost_vector mesh b ~data:0 in
      let vm = Sched.Cost.cost_vector mesh m ~data:0 in
      Array.for_all2 (fun x y -> x = y) vm
        (Array.mapi (fun i x -> x + vb.(i)) va))

(* [axis_min] is the lowest index of [axis_cost]'s minimum and that
   minimum, on lines and rings of 1 to 17 positions. Weights come from
   a narrow range (mode 0: 0..1, heavy with zeros and ties; mode 1:
   0..9) or are all zero, where every position ties at cost 0. *)
let prop_axis_min =
  QCheck.Test.make ~name:"axis_min = lowest argmin of axis_cost, line and ring"
    ~count:500
    QCheck.(
      triple bool (int_range 0 2)
        (list_of_size (Gen.int_range 1 17) (int_range 0 9)))
    (fun (wrap, mode, vals) ->
      let m =
        Array.of_list
          (List.map
             (fun v -> match mode with 0 -> v mod 2 | 1 -> v | _ -> 0)
             vals)
      in
      let c = Sched.Cost.axis_cost ~wrap m in
      let lowest = ref 0 in
      Array.iteri (fun i v -> if v < c.(!lowest) then lowest := i) c;
      Sched.Cost.axis_min ~wrap m = (!lowest, c.(!lowest)))

let test_axis_min_ties () =
  let pair = Alcotest.(pair int int) in
  Alcotest.check pair "zero line" (0, 0)
    (Sched.Cost.axis_min ~wrap:false [| 0; 0; 0 |]);
  Alcotest.check pair "zero ring" (0, 0)
    (Sched.Cost.axis_min ~wrap:true [| 0; 0; 0; 0 |]);
  (* two equal ends: every middle position ties on a line *)
  Alcotest.check pair "tied line" (0, 4)
    (Sched.Cost.axis_min ~wrap:false [| 1; 0; 0; 0; 1 |]);
  (* antipodal pair on a ring of 4: positions 0 and 2 tie with 1 and 3 *)
  Alcotest.check pair "tied ring" (0, 2)
    (Sched.Cost.axis_min ~wrap:true [| 1; 0; 1; 0 |]);
  Alcotest.check pair "one position" (0, 0)
    (Sched.Cost.axis_min ~wrap:true [| 5 |])

let suite =
  [
    Gen.case "reference cost" test_reference_cost;
    Gen.case "cost vector matches pointwise" test_cost_vector_matches_pointwise;
    Gen.case "unreferenced datum is free" test_unreferenced_datum_is_free;
    Gen.case "local optimal center" test_local_optimal_center;
    Gen.case "tie breaks to low rank" test_local_optimal_tie_breaks_low_rank;
    Gen.case "path cost" test_path_cost;
    Gen.to_alcotest prop_center_is_argmin;
    Gen.to_alcotest prop_cost_linear_in_merge;
    Gen.to_alcotest prop_axis_min;
    Gen.case "axis_min ties and zeros" test_axis_min_ties;
  ]
