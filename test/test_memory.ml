let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mesh = Gen.mesh44

let test_fresh_is_empty () =
  let m = Pim.Memory.create mesh ~capacity:3 in
  check_int "used" 0 (Pim.Memory.used m 0);
  check_int "free" 3 (Pim.Memory.free m 0);
  check_bool "not full" false (Pim.Memory.is_full m 0);
  check_int "total" 0 (Pim.Memory.total_used m)

let test_allocate_until_full () =
  let m = Pim.Memory.create mesh ~capacity:2 in
  check_bool "first" true (Pim.Memory.allocate m 5);
  check_bool "second" true (Pim.Memory.allocate m 5);
  check_bool "full now" true (Pim.Memory.is_full m 5);
  check_bool "third rejected" false (Pim.Memory.allocate m 5);
  check_int "used stays" 2 (Pim.Memory.used m 5)

let test_release () =
  let m = Pim.Memory.create mesh ~capacity:1 in
  ignore (Pim.Memory.allocate m 7);
  Pim.Memory.release m 7;
  check_int "released" 0 (Pim.Memory.used m 7);
  Alcotest.check_raises "double release"
    (Invalid_argument "Memory.release: rank 7 already empty") (fun () ->
      Pim.Memory.release m 7)

let test_zero_capacity () =
  let m = Pim.Memory.create mesh ~capacity:0 in
  check_bool "always full" true (Pim.Memory.is_full m 0);
  check_bool "allocate fails" false (Pim.Memory.allocate m 0)

let test_unbounded () =
  let m = Pim.Memory.unbounded mesh in
  for _ = 1 to 1000 do
    assert (Pim.Memory.allocate m 3)
  done;
  check_bool "never full" false (Pim.Memory.is_full m 3);
  check_int "used tracked" 1000 (Pim.Memory.used m 3);
  Alcotest.(check (option int)) "capacity none" None (Pim.Memory.capacity m)

let test_reset_and_copy () =
  let m = Pim.Memory.create mesh ~capacity:4 in
  ignore (Pim.Memory.allocate m 1);
  ignore (Pim.Memory.allocate m 2);
  let snapshot = Pim.Memory.copy m in
  Pim.Memory.reset m;
  check_int "reset clears" 0 (Pim.Memory.total_used m);
  check_int "copy unaffected" 2 (Pim.Memory.total_used snapshot)

let test_capacity_for_paper_rule () =
  (* Paper: 8x8 data on a 4x4 array with 2x headroom -> capacity 8. *)
  check_int "paper example" 8
    (Pim.Memory.capacity_for ~data_count:64 ~mesh ~headroom:2);
  check_int "rounds up" 2
    (Pim.Memory.capacity_for ~data_count:17 ~mesh ~headroom:1)

let test_invalid_arguments () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Memory.create: negative capacity -1") (fun () ->
      ignore (Pim.Memory.create mesh ~capacity:(-1)));
  Alcotest.check_raises "bad rank"
    (Invalid_argument "Memory: rank 99 out of bounds") (fun () ->
      ignore (Pim.Memory.used (Pim.Memory.create mesh ~capacity:1) 99))

let prop_allocation_conserves =
  QCheck.Test.make ~name:"total_used counts allocations" ~count:100
    QCheck.(small_list (int_bound 15))
    (fun ranks ->
      let m = Pim.Memory.unbounded mesh in
      List.iter (fun r -> assert (Pim.Memory.allocate m r)) ranks;
      Pim.Memory.total_used m = List.length ranks)

(* The admit row stays in step with [is_full] through any sequence of
   allocations, releases, bans, resets and copies, bounded or not. *)
type op = Alloc of int | Release of int | Ban of int | Reset | Copy

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun r -> Alloc r) (int_bound 15));
        (3, map (fun r -> Release r) (int_bound 15));
        (1, map (fun r -> Ban r) (int_bound 15));
        (1, return Reset);
        (1, return Copy);
      ])

let prop_admit_row_in_step =
  QCheck.Test.make ~name:"admit_row follows is_full" ~count:200
    QCheck.(
      make
        Gen.(pair (int_range (-1) 3) (list_size (int_range 0 40) op_gen)))
    (fun (cap, ops) ->
      let m =
        ref
          (if cap < 0 then Pim.Memory.unbounded mesh
           else Pim.Memory.create mesh ~capacity:cap)
      in
      let in_step () =
        let row = Pim.Memory.admit_row !m in
        List.for_all
          (fun r ->
            (Bytes.get row r <> '\000') = not (Pim.Memory.is_full !m r))
          (List.init 16 Fun.id)
      in
      in_step ()
      && List.for_all
           (fun op ->
             (match op with
             | Alloc r -> ignore (Pim.Memory.allocate !m r)
             | Release r ->
                 if Pim.Memory.used !m r > 0 then Pim.Memory.release !m r
             | Ban r -> Pim.Memory.ban !m r
             | Reset -> Pim.Memory.reset !m
             | Copy ->
                 let before = Bytes.copy (Pim.Memory.admit_row !m) in
                 m := Pim.Memory.copy !m;
                 assert (Bytes.equal before (Pim.Memory.admit_row !m)));
             in_step ())
           ops)

let suite =
  [
    Gen.case "fresh is empty" test_fresh_is_empty;
    Gen.case "allocate until full" test_allocate_until_full;
    Gen.case "release" test_release;
    Gen.case "zero capacity" test_zero_capacity;
    Gen.case "unbounded" test_unbounded;
    Gen.case "reset and copy" test_reset_and_copy;
    Gen.case "paper capacity rule" test_capacity_for_paper_rule;
    Gen.case "invalid arguments" test_invalid_arguments;
    Gen.to_alcotest prop_allocation_conserves;
    Gen.to_alcotest prop_admit_row_in_step;
  ]
