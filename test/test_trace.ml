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
  let d = Oracle.Trace.drop_empty_windows t in
  check_int "one window left" 1 (Reftrace.Trace.n_windows d);
  (* all-empty traces keep one window *)
  let t2 = Reftrace.Trace.create space [ empty; empty ] in
  check_int "degenerate keeps one" 1
    (Reftrace.Trace.n_windows (Oracle.Trace.drop_empty_windows t2))

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

(* -- Trace.generate ------------------------------------------------------ *)

(* [stream space events] feeds [events] to [Trace.generate] in order. *)
let stream space (events : Oracle.Trace.event list) =
  Reftrace.Trace.generate space (fun emit ->
      List.iter
        (fun (e : Oracle.Trace.event) -> emit ~kind:e.kind e.step e.proc e.data)
        events)

(* Non-decreasing step streams: a start step, then per reference a step
   increment (mostly 0, sometimes a gap), a rank, a datum and a kind. A
   quarter of the streams stay on one step. *)
let step_stream_gen =
  let open QCheck.Gen in
  let* side = int_range 1 3 in
  let* start = int_range (-3) 3 in
  let* single = frequency [ (1, return true); (3, return false) ] in
  let increment =
    if single then return 0
    else frequency [ (6, return 0); (2, return 1); (1, int_range 2 5) ]
  in
  let reference =
    quad increment (int_bound 15) (int_bound ((side * side) - 1)) bool
  in
  let* refs = list_size (int_range 1 40) reference in
  let step = ref start in
  let events =
    List.map
      (fun (inc, proc, data, write) ->
        step := !step + inc;
        let kind =
          if write then Reftrace.Window.Write else Reftrace.Window.Read
        in
        Oracle.Trace.event ~kind ~step:!step ~proc ~data ())
      refs
  in
  return (side, events)

let prop_generate_matches_per_step =
  let print (side, events) =
    Printf.sprintf "%dx%d: %s" side side
      (String.concat " "
         (List.map
            (fun (e : Oracle.Trace.event) ->
              Printf.sprintf "%d:p%d:d%d%s" e.step e.proc e.data
                (if e.kind = Reftrace.Window.Write then "w" else ""))
            events))
  in
  QCheck.Test.make ~name:"generate = oracle per_step (serial text)"
    ~count:300
    (QCheck.make ~print step_stream_gen)
    (fun (side, events) ->
      let space = Reftrace.Data_space.matrix "A" side in
      Reftrace.Serial.to_string (stream space events)
      = Reftrace.Serial.to_string (Oracle.Window_builder.per_step space events))

let test_generate_validation () =
  let space = Reftrace.Data_space.matrix "A" 2 in
  Alcotest.check_raises "backwards step"
    (Invalid_argument "Trace.generate: step 2 after step 3") (fun () ->
      ignore
        (Reftrace.Trace.generate space (fun emit ->
             emit 3 0 0;
             emit 3 1 1;
             emit 2 0 0)));
  Alcotest.check_raises "no references"
    (Invalid_argument "Trace.generate: no references") (fun () ->
      ignore (Reftrace.Trace.generate space (fun _ -> ())))

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
    Gen.to_alcotest prop_generate_matches_per_step;
    Gen.case "generate validation" test_generate_validation;
  ]
