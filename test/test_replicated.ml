let mesh = Gen.mesh44
let problem t = Sched.Problem.create mesh t
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let total ?max_copies trace =
  let r = Sched.Replicated.schedule ?max_copies (problem trace) in
  (Sched.Replicated.cost r mesh trace).Sched.Replicated.total

let test_single_copy_equals_gomcds () =
  let t = Workloads.Code_kernel.trace ~n:8 mesh in
  check_int "max_copies=1 is GOMCDS"
    (Sched.Schedule.total_cost (Sched.Gomcds.schedule (problem t)) t)
    (total ~max_copies:1 t)

let test_broadcast_window_replicates () =
  (* one datum read by all four corners, heavily: copies pay off *)
  let t =
    Gen.trace mesh ~n_data:1
      [ [ (0, 0, 6); (0, 3, 6); (0, 12, 6); (0, 15, 6) ] ]
  in
  let r = Sched.Replicated.schedule ~max_copies:4 (problem t) in
  check_bool "replicated" true (Sched.Replicated.max_live_copies r ~data:0 > 1);
  check_bool "beats single-copy optimum" true
    (total ~max_copies:4 t < Sched.Bounds.lower_bound_in (problem t))

let test_no_benefit_no_copies () =
  (* all reads at one processor: a second copy can never pay *)
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 5, 9) ]; [ (0, 5, 9) ] ] in
  let r = Sched.Replicated.schedule ~max_copies:4 (problem t) in
  check_int "one copy" 1 (Sched.Replicated.max_live_copies r ~data:0)

let test_carried_copy_is_free () =
  (* same broadcast pattern twice: copies created in window 0 are carried
     into window 1 with no second creation charge *)
  let spec = [ (0, 0, 6); (0, 15, 6) ] in
  let t = Gen.trace mesh ~n_data:1 [ spec; spec ] in
  let r = Sched.Replicated.schedule ~max_copies:2 (problem t) in
  let b = Sched.Replicated.cost r mesh t in
  check_int "copies in both windows" 2
    (List.length (Sched.Replicated.copies r ~window:1 ~data:0));
  (* creation charged once: at most one transfer across the whole run *)
  check_bool "single creation" true (b.Sched.Replicated.creation <= 6)

let test_rejects_zero_copies () =
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 0, 1) ] ] in
  Alcotest.check_raises "zero"
    (Invalid_argument "Replicated.schedule: max_copies must be at least 1")
    (fun () -> ignore (Sched.Replicated.schedule ~max_copies:0 (problem t)))

let test_rejects_faulted_session () =
  (* no fault semantics: a session with any fault model is refused *)
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 0, 1) ] ] in
  let faulted =
    Sched.Problem.create
      ~fault:(Pim.Fault.create ~dead_links:[ (0, 1) ] ())
      mesh t
  in
  Alcotest.check_raises "faulted"
    (Invalid_argument
       "Replicated.schedule: sessions with a fault model are not supported")
    (fun () -> ignore (Sched.Replicated.schedule faulted))

let prop_never_worse_than_gomcds =
  let arb = Gen.trace_arbitrary ~max_data:5 ~max_windows:4 ~max_count:5 () in
  QCheck.Test.make ~name:"replication never costs more than GOMCDS"
    ~count:100 arb (fun t ->
      let gomcds = Sched.Schedule.total_cost (Sched.Gomcds.schedule (problem t)) t in
      total ~max_copies:3 t <= gomcds)

let prop_simulated_equals_analytic =
  let arb = Gen.trace_arbitrary ~max_data:5 ~max_windows:4 ~max_count:4 () in
  QCheck.Test.make
    ~name:"replicated schedule: simulated traffic = analytic cost" ~count:60
    arb (fun t ->
      let r = Sched.Replicated.schedule ~max_copies:3 (problem t) in
      let analytic = (Sched.Replicated.cost r mesh t).Sched.Replicated.total in
      let report =
        Pim.Simulator.run mesh (Sched.Replicated.to_rounds r mesh t)
      in
      report.Pim.Simulator.total_cost = analytic)

let prop_capacity_respected_with_copies =
  let arb = Gen.trace_arbitrary ~max_data:12 ~max_windows:4 ~max_count:4 () in
  QCheck.Test.make ~name:"copies never exceed memory capacity" ~count:60 arb
    (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let capacity = Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2 in
      let r =
        Sched.Replicated.schedule ~max_copies:4 (Gen.bounded capacity mesh t)
      in
      Option.is_none (Sched.Replicated.check_capacity r ~capacity))

let prop_more_copies_never_fewer_wins =
  (* not monotone in general, but k copies can always mimic k=1 per window;
     our greedy guarantees <= the GOMCDS baseline for every k *)
  let arb = Gen.trace_arbitrary ~max_data:4 ~max_windows:4 ~max_count:5 () in
  QCheck.Test.make
    ~name:"every max_copies stays below the single-copy GOMCDS cost"
    ~count:60 arb (fun t ->
      let baseline = total ~max_copies:1 t in
      List.for_all (fun k -> total ~max_copies:k t <= baseline) [ 2; 3; 4 ])

let test_matmul_pivot_row_benefits () =
  (* window k of C = A*A broadcasts row/column k of A: replication should
     strictly beat single-copy scheduling *)
  let t = Workloads.Matmul.trace ~n:8 mesh in
  let single = Sched.Schedule.total_cost (Sched.Gomcds.schedule (problem t)) t in
  let replicated = total ~max_copies:4 t in
  check_bool "strict win" true (replicated < single)

let test_written_datum_stays_single_copy () =
  (* same broadcast pull as the replication test, but the datum is written:
     coherence pins it to one copy *)
  let space = Reftrace.Data_space.matrix "A" 1 in
  let w = Reftrace.Window.create ~n_data:1 in
  List.iter
    (fun proc -> Reftrace.Window.add w ~data:0 ~proc ~count:6)
    [ 0; 3; 12; 15 ];
  Reftrace.Window.add ~kind:Reftrace.Window.Write w ~data:0 ~proc:0 ~count:1;
  let t = Reftrace.Trace.create space [ w ] in
  let r = Sched.Replicated.schedule ~max_copies:4 (problem t) in
  Alcotest.(check int)
    "pinned" 1
    (Sched.Replicated.max_live_copies r ~data:0)

let test_write_traffic_charged_to_primary () =
  let space = Reftrace.Data_space.matrix "A" 1 in
  let w = Reftrace.Window.create ~n_data:1 in
  Reftrace.Window.add ~kind:Reftrace.Window.Write w ~data:0 ~proc:15 ~count:2;
  Reftrace.Window.add w ~data:0 ~proc:15 ~count:1;
  let t = Reftrace.Trace.create space [ w ] in
  let r = Sched.Replicated.schedule (problem t) in
  (* all activity at rank 15: primary sits there, everything local *)
  Alcotest.(check int)
    "free" 0
    (Sched.Replicated.cost r mesh t).Sched.Replicated.total

let test_coherent_simulation_matches () =
  (* mixed reads and writes across windows: identity must still hold *)
  let space =
    Reftrace.Data_space.create
      (Reftrace.Data_space.array_desc "A" ~rows:1 ~cols:4)
      []
  in
  let w0 = Reftrace.Window.create ~n_data:4 in
  List.iter
    (fun proc -> Reftrace.Window.add w0 ~data:0 ~proc ~count:4)
    [ 0; 15 ];
  Reftrace.Window.add ~kind:Reftrace.Window.Write w0 ~data:1 ~proc:3 ~count:2;
  let w1 = Reftrace.Window.create ~n_data:4 in
  Reftrace.Window.add ~kind:Reftrace.Window.Write w1 ~data:0 ~proc:5 ~count:1;
  Reftrace.Window.add w1 ~data:1 ~proc:9 ~count:3;
  let t = Reftrace.Trace.create space [ w0; w1 ] in
  let r = Sched.Replicated.schedule ~max_copies:3 (problem t) in
  let analytic = (Sched.Replicated.cost r mesh t).Sched.Replicated.total in
  let report = Pim.Simulator.run mesh (Sched.Replicated.to_rounds r mesh t) in
  Alcotest.(check int) "identity" analytic report.Pim.Simulator.total_cost

let test_lu_replication_limited_by_writes () =
  (* LU writes most touched elements every window; replication should gain
     far less than on the read-only matmul inputs *)
  let lu = Workloads.Lu.trace ~n:8 mesh in
  let single = Sched.Schedule.total_cost (Sched.Gomcds.schedule (problem lu)) lu in
  let r = Sched.Replicated.schedule ~max_copies:8 (problem lu) in
  let replicated = (Sched.Replicated.cost r mesh lu).Sched.Replicated.total in
  Alcotest.(check bool) "still helps a bit" true (replicated <= single);
  Alcotest.(check bool)
    "but writes cap the win" true
    (float_of_int replicated > 0.5 *. float_of_int single)

(* Differential oracle for the greedy pricing rewrite: the pre-rewrite
   [run] re-priced the whole read profile with [read_cost] for every
   candidate rank; the current one prices each candidate with
   [Pim.Mesh.distance] against a per-round base array. Both must pick identical
   copy sets and charge identical creation transfers, so we keep the old
   greedy verbatim (modulo using only exported APIs) and replay it. *)
module Pricing_oracle = struct
  let nearest mesh set proc =
    match set with
    | [] -> invalid_arg "nearest: empty copy set"
    | first :: rest ->
        List.fold_left
          (fun best r ->
            let db = Pim.Mesh.distance mesh best proc
            and dr = Pim.Mesh.distance mesh r proc in
            if dr < db || (dr = db && r < best) then r else best)
          first rest

  let read_cost mesh set profile =
    List.fold_left
      (fun acc (proc, count) ->
        acc + (count * Pim.Mesh.distance mesh (nearest mesh set proc) proc))
      0 profile

  (* copy sets and total creation charge of the pre-rewrite greedy *)
  let run ?(max_copies = 2) problem =
    let mesh = Sched.Problem.mesh problem in
    let trace = Sched.Problem.trace problem in
    let capacity = Sched.Problem.capacity problem in
    let n_data = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
    let n_windows = Reftrace.Trace.n_windows trace in
    let m = Pim.Mesh.size mesh in
    let windows = Array.of_list (Reftrace.Trace.windows trace) in
    let primary = Sched.Gomcds.schedule problem in
    let loads = Array.make_matrix n_windows m 0 in
    for w = 0 to n_windows - 1 do
      for d = 0 to n_data - 1 do
        let r = Sched.Schedule.center primary ~window:w ~data:d in
        loads.(w).(r) <- loads.(w).(r) + 1
      done
    done;
    let has_room w r =
      match capacity with None -> true | Some c -> loads.(w).(r) < c
    in
    let copies = Array.make_matrix n_windows n_data [] in
    let creation_total = ref 0 in
    List.iter
      (fun data ->
        let prev_set = ref [] in
        for w = 0 to n_windows - 1 do
          let home = Sched.Schedule.center primary ~window:w ~data in
          let set = ref [ home ] in
          let written = Reftrace.Window.writes windows.(w) data > 0 in
          let profile = Reftrace.Window.read_profile windows.(w) data in
          if profile <> [] && not written then begin
            let continue = ref true in
            while !continue && List.length !set < max_copies do
              let current = read_cost mesh !set profile in
              let sources = !set @ !prev_set in
              let best = ref None in
              for r = 0 to m - 1 do
                if (not (List.mem r !set)) && has_room w r then begin
                  let creation =
                    if List.mem r !prev_set then 0
                    else Pim.Mesh.distance mesh (nearest mesh sources r) r
                  in
                  let gain = current - read_cost mesh (r :: !set) profile in
                  let net = gain - creation in
                  let better =
                    match !best with
                    | None -> net > 0
                    | Some (_, _, best_net) -> net > best_net
                  in
                  if better then best := Some (r, creation, net)
                end
              done;
              match !best with
              | Some (r, creation, net) when net > 0 ->
                  creation_total := !creation_total + creation;
                  set := !set @ [ r ];
                  loads.(w).(r) <- loads.(w).(r) + 1
              | Some _ | None -> continue := false
            done
          end;
          copies.(w).(data) <- !set;
          prev_set := !set
        done)
      (Sched.Ordering.by_total_references trace);
    (copies, !creation_total)
end

let prop_pricing_matches_read_cost_oracle =
  let arb = Gen.trace_arbitrary ~max_data:5 ~max_windows:4 ~max_count:4 () in
  QCheck.Test.make
    ~name:"Mesh.distance greedy pricing equals the read_cost greedy oracle"
    ~count:50 arb (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let n_windows = Reftrace.Trace.n_windows t in
      let tight = Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2 in
      List.for_all
        (fun (policy, max_copies) ->
          let r =
            Sched.Replicated.schedule ~max_copies
              (Sched.Problem.create ~policy mesh t)
          in
          let oracle_copies, oracle_creation =
            Pricing_oracle.run ~max_copies (Sched.Problem.create ~policy mesh t)
          in
          (Sched.Replicated.cost r mesh t).Sched.Replicated.creation
          = oracle_creation
          && List.for_all
               (fun w ->
                 List.for_all
                   (fun data ->
                     Sched.Replicated.copies r ~window:w ~data
                     = oracle_copies.(w).(data))
                   (List.init n Fun.id))
               (List.init n_windows Fun.id))
        Sched.Problem.
          [
            (Unbounded, 1); (Unbounded, 3); (Unbounded, 4); (Bounded tight, 4);
          ])

let suite =
  [
    Gen.to_alcotest prop_pricing_matches_read_cost_oracle;
    Gen.case "single copy equals gomcds" test_single_copy_equals_gomcds;
    Gen.case "written datum stays single copy" test_written_datum_stays_single_copy;
    Gen.case "write traffic to primary" test_write_traffic_charged_to_primary;
    Gen.case "coherent simulation matches" test_coherent_simulation_matches;
    Gen.case "LU replication limited by writes" test_lu_replication_limited_by_writes;
    Gen.case "broadcast window replicates" test_broadcast_window_replicates;
    Gen.case "no benefit, no copies" test_no_benefit_no_copies;
    Gen.case "carried copy is free" test_carried_copy_is_free;
    Gen.case "rejects zero copies" test_rejects_zero_copies;
    Gen.case "rejects faulted session" test_rejects_faulted_session;
    Gen.to_alcotest prop_never_worse_than_gomcds;
    Gen.to_alcotest prop_simulated_equals_analytic;
    Gen.to_alcotest prop_capacity_respected_with_copies;
    Gen.to_alcotest prop_more_copies_never_fewer_wins;
    Gen.case "matmul pivot row benefits" test_matmul_pivot_row_benefits;
  ]
