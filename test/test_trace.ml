let check_int = Alcotest.(check int)
let mesh = Gen.mesh44

let simple_trace () =
  Gen.trace mesh ~n_data:3
    [ [ (0, 1, 2); (1, 0, 1) ]; [ (2, 5, 3) ]; [ (0, 2, 1) ] ]

let test_basic_accessors () =
  let t = simple_trace () in
  check_int "windows" 3 (Reftrace.Trace.n_windows t);
  check_int "total references" 7 (Reftrace.Trace.total_references t);
  check_int "window 1 refs" 3
    (Reftrace.Window.total_references (Reftrace.Trace.window t 1))

let test_merged () =
  let t = simple_trace () in
  let m = Reftrace.Trace.merged t in
  Alcotest.(check (list (pair int int)))
    "datum 0 merged" [ (1, 2); (2, 1) ]
    (Reftrace.Window.profile m 0);
  check_int "merged total" (Reftrace.Trace.total_references t)
    (Reftrace.Window.total_references m)

let test_validate () =
  let t = simple_trace () in
  Oracle.Trace.validate t mesh;
  let tiny = Pim.Mesh.square 2 in
  Alcotest.check_raises "rank 5 on 2x2"
    (Invalid_argument
       "Trace.validate: window 1 references rank 5 but mesh has 4 processors")
    (fun () -> Oracle.Trace.validate t tiny)

let test_reversed () =
  let t = simple_trace () in
  let r = Reftrace.Trace.reversed t in
  Alcotest.(check bool)
    "last becomes first" true
    (Reftrace.Window.equal (Reftrace.Trace.window r 0)
       (Reftrace.Trace.window t 2));
  check_int "same total" (Reftrace.Trace.total_references t)
    (Reftrace.Trace.total_references r)

let test_append_shared_space () =
  let a = simple_trace () and b = simple_trace () in
  let ab = Reftrace.Trace.append a b in
  check_int "windows concatenated" 6 (Reftrace.Trace.n_windows ab);
  check_int "same data space size" 3
    (Reftrace.Data_space.size (Reftrace.Trace.space ab));
  check_int "references doubled"
    (2 * Reftrace.Trace.total_references a)
    (Reftrace.Trace.total_references ab)

let test_append_disjoint_space () =
  let a = simple_trace () in
  let space_b =
    Reftrace.Data_space.create
      (Reftrace.Data_space.array_desc "B" ~rows:1 ~cols:2)
      []
  in
  let wb = Reftrace.Window.create ~n_data:2 in
  Reftrace.Window.add wb ~data:1 ~proc:7 ~count:4;
  let b = Reftrace.Trace.create space_b [ wb ] in
  let ab = Reftrace.Trace.append a b in
  check_int "space grows" 5 (Reftrace.Data_space.size (Reftrace.Trace.space ab));
  (* B(0,1) is translated to id 3 + 1 = 4 *)
  check_int "translated refs" 4
    (Reftrace.Window.references (Reftrace.Trace.window ab 3) 4)

let test_drop_empty_windows () =
  let space = Reftrace.Data_space.matrix "A" 1 in
  let empty = Reftrace.Window.create ~n_data:1 in
  let full = Gen.window ~n_data:1 [ (0, 0, 1) ] in
  let t = Reftrace.Trace.create space [ empty; full; empty ] in
  let d = Reftrace.Trace.drop_empty_windows t in
  check_int "one window left" 1 (Reftrace.Trace.n_windows d);
  (* all-empty traces keep one window *)
  let t2 = Reftrace.Trace.create space [ empty; empty ] in
  check_int "degenerate keeps one" 1
    (Reftrace.Trace.n_windows (Reftrace.Trace.drop_empty_windows t2))

let test_create_validation () =
  let space = Reftrace.Data_space.matrix "A" 2 in
  Alcotest.check_raises "empty" (Invalid_argument "Trace.create: no windows")
    (fun () -> ignore (Reftrace.Trace.create space []));
  let wrong = Reftrace.Window.create ~n_data:3 in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Trace.create: window over 3 data, space has 4 elements")
    (fun () -> ignore (Reftrace.Trace.create space [ wrong ]))

let prop_reverse_involution =
  let arb = Gen.trace_arbitrary ~max_data:5 ~max_windows:5 ~max_count:3 () in
  QCheck.Test.make ~name:"reverse twice is identity" ~count:50 arb (fun t ->
      let rr = Reftrace.Trace.reversed (Reftrace.Trace.reversed t) in
      List.for_all2 Reftrace.Window.equal (Reftrace.Trace.windows t)
        (Reftrace.Trace.windows rr))

let prop_merged_preserves_counts =
  let arb = Gen.trace_arbitrary ~max_data:5 ~max_windows:5 ~max_count:3 () in
  QCheck.Test.make ~name:"merged preserves total references" ~count:50 arb
    (fun t ->
      Reftrace.Window.total_references (Reftrace.Trace.merged t)
      = Reftrace.Trace.total_references t)

let suite =
  [
    Gen.case "basic accessors" test_basic_accessors;
    Gen.case "merged" test_merged;
    Gen.case "validate" test_validate;
    Gen.case "reversed" test_reversed;
    Gen.case "append shared space" test_append_shared_space;
    Gen.case "append disjoint space" test_append_disjoint_space;
    Gen.case "drop empty windows" test_drop_empty_windows;
    Gen.case "create validation" test_create_validation;
    Gen.to_alcotest prop_reverse_involution;
    Gen.to_alcotest prop_merged_preserves_counts;
  ]
