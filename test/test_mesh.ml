let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mesh = Gen.mesh44

let test_create_validates () =
  Alcotest.check_raises "zero rows" (Invalid_argument
    "Mesh.create: dimensions must be positive (0x4)") (fun () ->
      ignore (Pim.Mesh.create ~rows:0 ~cols:4))

let test_shape () =
  let m = Pim.Mesh.create ~rows:2 ~cols:3 in
  check_int "rows" 2 (Pim.Mesh.rows m);
  check_int "cols" 3 (Pim.Mesh.cols m);
  check_int "size" 6 (Pim.Mesh.size m)

let test_rank_coord_roundtrip () =
  Pim.Mesh.iter_ranks mesh (fun r ->
      let c = Pim.Mesh.coord_of_rank mesh r in
      check_int "roundtrip" r (Pim.Mesh.rank_of_coord mesh c))

let test_rank_row_major () =
  (* rank = y * cols + x *)
  check_int "origin" 0
    (Pim.Mesh.rank_of_coord mesh (Pim.Coord.make ~x:0 ~y:0));
  check_int "(1,0)" 1 (Pim.Mesh.rank_of_coord mesh (Pim.Coord.make ~x:1 ~y:0));
  check_int "(0,1)" 4 (Pim.Mesh.rank_of_coord mesh (Pim.Coord.make ~x:0 ~y:1));
  check_int "(3,3)" 15 (Pim.Mesh.rank_of_coord mesh (Pim.Coord.make ~x:3 ~y:3))

let test_out_of_bounds () =
  Alcotest.check_raises "coord out of bounds"
    (Invalid_argument "Mesh.rank_of_coord: (4,0) out of bounds for 4x4 mesh")
    (fun () ->
      ignore (Pim.Mesh.rank_of_coord mesh (Pim.Coord.make ~x:4 ~y:0)));
  check_bool "in_bounds negative" false
    (Pim.Mesh.in_bounds mesh (Pim.Coord.make ~x:(-1) ~y:0))

let test_distance () =
  let r a b = Pim.Mesh.rank_of_coord mesh (Pim.Coord.make ~x:a ~y:b) in
  check_int "corner to corner" 6 (Pim.Mesh.distance mesh (r 0 0) (r 3 3));
  check_int "adjacent" 1 (Pim.Mesh.distance mesh (r 1 1) (r 2 1));
  check_int "self" 0 (Pim.Mesh.distance mesh (r 2 2) (r 2 2))

let test_xy_route_shape () =
  let r a b = Pim.Mesh.rank_of_coord mesh (Pim.Coord.make ~x:a ~y:b) in
  let path = Pim.Mesh.xy_route mesh ~src:(r 0 0) ~dst:(r 2 1) in
  (* x first, then y *)
  Alcotest.(check (list int)) "route" [ r 0 0; r 1 0; r 2 0; r 2 1 ] path

let test_xy_route_self () =
  Alcotest.(check (list int))
    "self route" [ 5 ]
    (Pim.Mesh.xy_route mesh ~src:5 ~dst:5)

let test_neighbours () =
  let r a b = Pim.Mesh.rank_of_coord mesh (Pim.Coord.make ~x:a ~y:b) in
  let sorted l = List.sort Int.compare l in
  Alcotest.(check (list int))
    "corner has two" (sorted [ r 1 0; r 0 1 ])
    (sorted (Pim.Mesh.neighbours mesh (r 0 0)));
  check_int "interior has four" 4
    (List.length (Pim.Mesh.neighbours mesh (r 1 1)))

let test_links_count () =
  (* 4x4 mesh: 2 * (2 * 4 * 3) = 48 directed links *)
  check_int "links" 48 (List.length (Pim.Mesh.links mesh))

let test_ranks_and_fold () =
  check_int "ranks" 16 (List.length (Pim.Mesh.ranks mesh));
  check_int "fold sum" 120
    (Pim.Mesh.fold_ranks mesh ~init:0 ~f:( + ))

let prop_route_length_is_distance =
  QCheck.Test.make ~name:"xy route length = distance + 1" ~count:300
    QCheck.(pair (int_bound 15) (int_bound 15))
    (fun (src, dst) ->
      let path = Pim.Mesh.xy_route mesh ~src ~dst in
      List.length path = Pim.Mesh.distance mesh src dst + 1)

let prop_route_steps_adjacent =
  QCheck.Test.make ~name:"xy route steps are mesh links" ~count:300
    QCheck.(pair (int_bound 15) (int_bound 15))
    (fun (src, dst) ->
      let path = Pim.Mesh.xy_route mesh ~src ~dst in
      let rec ok = function
        | a :: (b :: _ as rest) ->
            List.mem b (Pim.Mesh.neighbours mesh a) && ok rest
        | [ _ ] | [] -> true
      in
      ok path)

let prop_distance_symmetric =
  QCheck.Test.make ~name:"mesh distance symmetric" ~count:300
    QCheck.(pair (int_bound 15) (int_bound 15))
    (fun (a, b) -> Pim.Mesh.distance mesh a b = Pim.Mesh.distance mesh b a)

(* [Mesh.distance] against the coordinate oracle on meshes and tori of
   1 to 17 per axis, extents 1 and 2 drawn often: there a ring is the
   line it equals. *)
let prop_distance_matches_oracle =
  let open QCheck.Gen in
  let extent = frequency [ (1, int_range 1 2); (2, int_range 1 17) ] in
  let gen =
    triple extent extent bool >>= fun (rows, cols, wrap) ->
    let n = rows * cols in
    pair (int_range 0 (n - 1)) (int_range 0 (n - 1)) >|= fun (a, b) ->
    (rows, cols, wrap, a, b)
  in
  QCheck.Test.make ~name:"distance equals the coordinate oracle" ~count:1000
    (QCheck.make
       ~print:(fun (rows, cols, wrap, a, b) ->
         Printf.sprintf "%dx%d %s, %d to %d" rows cols
           (if wrap then "torus" else "mesh")
           a b)
       gen)
    (fun (rows, cols, wrap, a, b) ->
      let m =
        if wrap then Pim.Mesh.torus ~rows ~cols else Pim.Mesh.create ~rows ~cols
      in
      Pim.Mesh.distance m a b = Oracle.Mesh_distance.distance m a b)

let test_distance_allocates_nothing () =
  List.iter
    (fun m ->
      let n = Pim.Mesh.size m in
      let sum = ref 0 in
      let before = Gc.minor_words () in
      for i = 0 to 9_999 do
        sum := !sum + Pim.Mesh.distance m (i mod n) (i * 7 mod n)
      done;
      let after = Gc.minor_words () in
      ignore (Sys.opaque_identity !sum);
      Alcotest.(check (float 0.)) "minor words" 0. (after -. before))
    [ Pim.Mesh.square 16; Pim.Mesh.square ~wrap:true 16 ]

let test_distance_out_of_range () =
  Alcotest.check_raises "rank past the end"
    (Invalid_argument "Mesh.distance: rank 16 out of bounds for 4x4")
    (fun () -> ignore (Pim.Mesh.distance mesh 3 16));
  Alcotest.check_raises "negative rank"
    (Invalid_argument "Mesh.distance: rank -1 out of bounds for 4x4")
    (fun () -> ignore (Pim.Mesh.distance mesh (-1) 0))

let suite =
  [
    Gen.case "create validates" test_create_validates;
    Gen.case "shape" test_shape;
    Gen.case "rank/coord roundtrip" test_rank_coord_roundtrip;
    Gen.case "row-major ranks" test_rank_row_major;
    Gen.case "out of bounds" test_out_of_bounds;
    Gen.case "distance" test_distance;
    Gen.case "xy route shape" test_xy_route_shape;
    Gen.case "xy route to self" test_xy_route_self;
    Gen.case "neighbours" test_neighbours;
    Gen.case "links count" test_links_count;
    Gen.case "ranks and fold" test_ranks_and_fold;
    Gen.to_alcotest prop_route_length_is_distance;
    Gen.to_alcotest prop_route_steps_adjacent;
    Gen.to_alcotest prop_distance_symmetric;
    Gen.to_alcotest prop_distance_matches_oracle;
    Gen.case "distance allocates nothing" test_distance_allocates_nothing;
    Gen.case "distance out of range" test_distance_out_of_range;
  ]
