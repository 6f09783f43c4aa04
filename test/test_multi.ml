(* Multi-array scheduling: the Array_group tier.

   Pillars:
   - group geometry: spec parsing, rank addressing, the two-level flat
     metric, and the virtual-mesh embedding;
   - the migration DP is pinned to a dense oracle: per datum, the full
     group distance matrix + full per-window cost vectors fed to
     [Layered.solve_dense] must price exactly what [Group_solver] pays
     under Gomcds — slab projection, cross-array constants and the
     scalar fabric edges all have to agree with the flat metric;
   - single-array degeneracy: a 1-member group is byte-identical to the
     plain Mesh path across every scheduler, mesh and torus, bounded and
     unbounded, jobs 1 and 4 (the suite honours PIMSCHED_TEST_KERNEL=naive
     so CI covers both cost kernels);
   - whole-array faults: injection is deterministic and monotone, dead
     arrays never host data, and reschedule-on-failure never loses to
     riding out the repaired plan;
   - plan serialization round-trips heterogeneous groups. *)

let kernel =
  match Sys.getenv_opt "PIMSCHED_TEST_KERNEL" with
  | Some "naive" -> `Naive
  | _ -> `Separable

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let group_2x2of4x4 ?(inter_cost = 10) () =
  Multi.Array_group.of_spec ~inter_cost "2x2of4x4"

let hetero ?(inter_cost = 10) () =
  Multi.Array_group.line ~inter_cost
    [ Pim.Mesh.square 2; Pim.Mesh.create ~rows:3 ~cols:2 ]

(* ------------------------------------------------------------------ *)
(* Array_group geometry                                                *)
(* ------------------------------------------------------------------ *)

let test_spec_grid () =
  let g = group_2x2of4x4 () in
  check_int "members" 4 (Multi.Array_group.n_members g);
  check_int "size" 64 (Multi.Array_group.size g);
  check_int "base 2" 32 (Multi.Array_group.base g 2);
  check_int "inter cost" 10 (Multi.Array_group.inter_cost g);
  let m, local = Multi.Array_group.local_of_rank g 37 in
  check_int "owner of 37" 2 m;
  check_int "local of 37" 5 local;
  check_int "global back" 37 (Multi.Array_group.global_rank g ~member:2 5)

let test_spec_list () =
  let g = Multi.Array_group.of_spec ~inter_cost:5 "2x2,3x2,1x3" in
  check_int "members" 3 (Multi.Array_group.n_members g);
  check_int "size" (4 + 6 + 3) (Multi.Array_group.size g);
  (* line interconnect: member 0 to member 2 is 2 fabric hops *)
  check_int "move cost 0->2" 10 (Multi.Array_group.move_cost g 0 2);
  check_int "move cost 1->1" 0 (Multi.Array_group.move_cost g 1 1)

let test_spec_rejects () =
  List.iter
    (fun spec ->
      check_bool
        (Printf.sprintf "spec %S rejected" spec)
        true
        (try
           ignore (Multi.Array_group.of_spec spec);
           false
         with Invalid_argument _ -> true))
    [ ""; "4"; "2x"; "x4"; "0x4"; "2x2of"; "of4x4"; "2x2of0x3"; "4x4,," ]

let test_metric () =
  let g = group_2x2of4x4 ~inter_cost:7 () in
  (* same member: the member's own mesh distance *)
  check_int "intra" 3
    (Multi.Array_group.distance g 0 (* (0,0) of member 0 *) 6 (* (1,2) *));
  (* cross member: flat inter_cost x inter-mesh hops, no local part *)
  check_int "cross adjacent" 7 (Multi.Array_group.distance g 3 16);
  check_int "cross diagonal" 14 (Multi.Array_group.distance g 0 63);
  (* torus members honour the wrap intra-member *)
  let gt = Multi.Array_group.of_spec ~torus:true "1x2of4x4" in
  let m = Multi.Array_group.member gt 0 in
  check_bool "member wraps" true (Pim.Mesh.wraps m);
  check_int "intra wrap" 1 (Multi.Array_group.distance gt 0 3)

let test_virtual_embedding () =
  let g = group_2x2of4x4 () in
  let vm = Multi.Array_group.virtual_mesh g in
  check_int "virtual rows" 8 (Pim.Mesh.rows vm);
  check_int "virtual cols" 8 (Pim.Mesh.cols vm);
  (* virtual (0,0) -> member 0 local (0,0); (0,4) -> member 1 local (0,0);
     (5,6) -> member 3 local (1,2) *)
  check_int "v(0,0)" 0 (Multi.Array_group.of_virtual_rank g 0);
  check_int "v(0,4)" 16 (Multi.Array_group.of_virtual_rank g 4);
  check_int "v(5,6)"
    (48 + (1 * 4) + 2)
    (Multi.Array_group.of_virtual_rank g ((5 * 8) + 6));
  (* heterogeneous line: clamping past a smaller member's edge *)
  let h = hetero () in
  let vh = Multi.Array_group.virtual_mesh h in
  check_int "hetero virtual rows" 3 (Pim.Mesh.rows vh);
  check_int "hetero virtual cols" 4 (Pim.Mesh.cols vh);
  (* virtual (2,0) is below member 0 (2x2): clamps to its last row *)
  check_int "clamped" 2 (Multi.Array_group.of_virtual_rank h (2 * 4));
  (* degenerate group: virtual mesh IS the member, remap is the identity *)
  let d = Multi.Array_group.of_spec "4x4" in
  check_bool "degenerate virtual identity" true
    (Multi.Array_group.virtual_mesh d == Multi.Array_group.member d 0);
  let tr = Gen.trace Gen.mesh44 ~n_data:3 [ [ (0, 5, 2); (2, 9, 1) ] ] in
  check_bool "degenerate trace identity" true
    (Multi.Array_group.remap_virtual_trace d tr == tr)

(* ------------------------------------------------------------------ *)
(* Migration DP vs dense oracle                                        *)
(* ------------------------------------------------------------------ *)

(* Random trace over the group's global ranks. *)
let group_trace_gen group ~max_data ~max_windows ~max_count =
  let open QCheck.Gen in
  let sz = Multi.Array_group.size group in
  int_range 1 max_data >>= fun n_data ->
  int_range 1 max_windows >>= fun n_windows ->
  let ref_gen =
    triple (int_range 0 (n_data - 1)) (int_range 0 (sz - 1))
      (int_range 1 max_count)
  in
  let window_gen =
    int_range 1 (2 * sz) >>= fun n -> list_size (return n) ref_gen
  in
  list_size (return n_windows) window_gen >>= fun specs ->
  return (Gen.trace Gen.mesh44 ~n_data specs)

let group_trace_arbitrary group ~max_data ~max_windows ~max_count =
  QCheck.make ~print:Gen.trace_print
    (group_trace_gen group ~max_data ~max_windows ~max_count)

(* Per-datum optimum over the group metric, the direct way: full
   distance matrix + full per-window vectors into the dense DP. *)
let dense_group_optimum group trace d =
  let sz = Multi.Array_group.size group in
  let nw = Reftrace.Trace.n_windows trace in
  let dist =
    Array.init sz (fun a ->
        Array.init sz (fun b -> Multi.Array_group.distance group a b))
  in
  let vectors =
    Array.init nw (fun w ->
        let win = Reftrace.Trace.window trace w in
        Array.init sz (fun g ->
            List.fold_left
              (fun acc (proc, count) ->
                acc + (count * Multi.Array_group.distance group proc g))
              0
              (Reftrace.Window.profile win d)))
  in
  Pathgraph.Layered.solve_dense ~dist ~vectors

let prop_dp_matches_dense_oracle =
  let group = hetero ~inter_cost:4 () in
  QCheck.Test.make
    ~name:"group Gomcds total = sum of dense per-datum group optima" ~count:30
    (group_trace_arbitrary group ~max_data:5 ~max_windows:4 ~max_count:3)
    (fun trace ->
      let gp = Multi.Group_problem.create ~kernel group trace in
      let plan, breakdown =
        Multi.Group_solver.evaluate gp Sched.Scheduler.Gomcds
      in
      let nd = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
      let oracle = ref 0 in
      for d = 0 to nd - 1 do
        let cost, _ = dense_group_optimum group trace d in
        oracle := !oracle + cost
      done;
      (* the DP is per-datum optimal, and the schedule's priced total
         must agree with the DP's own accounting *)
      breakdown.Multi.Group_schedule.total = !oracle
      && Multi.Group_solver.lower_bound gp = Some !oracle
      && Multi.Group_schedule.total_cost plan trace = !oracle)

(* ------------------------------------------------------------------ *)
(* Group relaxation vs the dense per-member oracle                     *)
(* ------------------------------------------------------------------ *)

(* The group DP as it stood before the separable relaxation: every
   member block relaxed by the O(width²) ascending source × target scan,
   then the scalar fabric edges. Kept verbatim (instrumentation aside)
   as the byte-identity oracle for [Layered.solve_group]. *)
module Dense_group = struct
  let solve ~members ~move_cost ~consts ~n_layers ~allowed () =
    let n_members = Array.length members in
    if n_members <= 0 then invalid_arg "Layered: members must be nonempty";
    if n_layers <= 0 then invalid_arg "Layered: n_layers must be positive";
    let widths =
      Array.map
        (fun (m : Pathgraph.Layered.group_member) ->
          let cols = Array.length m.g_xdist and rows = Array.length m.g_ydist in
          if cols <= 0 || rows <= 0 then
            invalid_arg "Layered: member axis tables must be nonempty";
          cols * rows)
        members
    in
    let bases = Array.make (n_members + 1) 0 in
    for i = 0 to n_members - 1 do
      bases.(i + 1) <- bases.(i) + widths.(i)
    done;
    let total = bases.(n_members) in
    Array.iteri
      (fun i (m : Pathgraph.Layered.group_member) ->
        let dim = Bigarray.Array1.dim m.g_vectors in
        if Array.length m.g_offsets < n_layers then
          invalid_arg "Layered: member offset table shorter than n_layers";
        Array.iter
          (fun off ->
            if off < 0 || off + widths.(i) > dim then
              invalid_arg "Layered: member layer offset outside the vector buffer")
          m.g_offsets)
      members;
    let inf = max_int in
    let cur = Array.make total inf in
    let choice = Array.make_matrix n_layers total (-1) in
    for i = 0 to n_members - 1 do
      let (m : Pathgraph.Layered.group_member) = members.(i) in
      let off0 = m.g_offsets.(0) and b = bases.(i) in
      let c0 = consts ~layer:0 ~member:i in
      for j = 0 to widths.(i) - 1 do
        if allowed ~layer:0 (b + j) then cur.(b + j) <- m.g_vectors.{off0 + j} + c0
      done
    done;
    let best = Array.make total inf in
    let from = Array.make total (-1) in
    let minv = Array.make n_members inf in
    let minr = Array.make n_members (-1) in
    for layer = 1 to n_layers - 1 do
      Array.fill best 0 total inf;
      (* per-member entry minima over the previous layer: the single source
         every outgoing cross edge of that member reroots at (lowest global
         rank on ties, matching the ascending scans everywhere else) *)
      for i = 0 to n_members - 1 do
        minv.(i) <- inf;
        minr.(i) <- -1;
        let b = bases.(i) in
        for j = 0 to widths.(i) - 1 do
          let d = cur.(b + j) in
          if d < minv.(i) then begin
            minv.(i) <- d;
            minr.(i) <- b + j
          end
        done
      done;
      for i = 0 to n_members - 1 do
        let (m : Pathgraph.Layered.group_member) = members.(i) in
        let cols = Array.length m.g_xdist and rows = Array.length m.g_ydist in
        let b = bases.(i) in
        for j = 0 to widths.(i) - 1 do
          let dj = cur.(b + j) in
          if dj <> inf then begin
            let xrow = m.g_xdist.(j mod cols) and yrow = m.g_ydist.(j / cols) in
            let k = ref b in
            for ky = 0 to rows - 1 do
              let basey = dj + yrow.(ky) in
              for kx = 0 to cols - 1 do
                let c = basey + xrow.(kx) in
                if c < best.(!k) then begin
                  best.(!k) <- c;
                  from.(!k) <- b + j
                end;
                incr k
              done
            done
          end
        done
      done;
      for i = 0 to n_members - 1 do
        let cv = ref inf and cf = ref (-1) in
        for jm = 0 to n_members - 1 do
          if jm <> i && minv.(jm) <> inf then begin
            let c = minv.(jm) + move_cost jm i in
            if c < !cv then begin
              cv := c;
              cf := minr.(jm)
            end
          end
        done;
        if !cf >= 0 then begin
          let b = bases.(i) in
          for k = 0 to widths.(i) - 1 do
            if !cv < best.(b + k) then begin
              best.(b + k) <- !cv;
              from.(b + k) <- !cf
            end
          done
        end
      done;
      let ch = choice.(layer) in
      for i = 0 to n_members - 1 do
        let (m : Pathgraph.Layered.group_member) = members.(i) in
        let voff = m.g_offsets.(layer) and b = bases.(i) in
        let ci = consts ~layer ~member:i in
        for k = 0 to widths.(i) - 1 do
          let g = b + k in
          if best.(g) <> inf && allowed ~layer g then begin
            cur.(g) <- best.(g) + m.g_vectors.{voff + k} + ci;
            ch.(g) <- from.(g)
          end
          else cur.(g) <- inf
        done
      done
    done;
    let best_node = ref (-1) in
    for j = 0 to total - 1 do
      if cur.(j) <> inf && (!best_node = -1 || cur.(j) < cur.(!best_node)) then
        best_node := j
    done;
    if !best_node = -1 then None
    else begin
      let centers = Array.make n_layers (-1) in
      centers.(n_layers - 1) <- !best_node;
      for layer = n_layers - 1 downto 1 do
        centers.(layer - 1) <- choice.(layer).(centers.(layer))
      done;
      Some (cur.(!best_node), centers)
    end
end

(* Members of different shapes (mesh and torus, lines, rings, a lone
   node), each with a slab of random, tie-heavy or constant rows laid
   out in reverse layer order; random cross constants, fabric prices and
   a mask that may empty a member's row, column or whole layer. *)
let member_shapes =
  [|
    (1, 1, false); (2, 2, true); (1, 5, false); (4, 1, true); (3, 5, true);
    (2, 3, false); (3, 3, true);
  |]

let group_relax_gen =
  let open QCheck.Gen in
  int_range 1 4 >>= fun n_members ->
  int_range 1 4 >>= fun n_layers ->
  list_size (return n_members) (int_range 0 (Array.length member_shapes - 1))
  >>= fun picks ->
  let shapes = List.map (fun i -> member_shapes.(i)) picks in
  let member_gen (rows, cols, torus) =
    let m = rows * cols in
    oneof
      [
        array_size (return (n_layers * m)) (int_range 0 20);
        array_size (return (n_layers * m)) (int_range 0 1);
        map (fun v -> Array.make (n_layers * m) v) (int_range 0 5);
      ]
    >>= fun flat -> return ((rows, cols, torus), flat)
  in
  flatten_l (List.map member_gen shapes) >>= fun members ->
  array_size (return (n_layers * n_members)) (int_range 0 6) >>= fun consts ->
  array_size (return (n_members * n_members)) (int_range 1 8) >>= fun fabric ->
  let total = List.fold_left (fun a ((r, c, _), _) -> a + (r * c)) 0 members in
  oneof
    [
      return (Array.make (n_layers * total) true);
      array_size (return (n_layers * total))
        (frequencyl [ (5, true); (1, false) ]);
    ]
  >>= fun mask -> return (n_layers, members, consts, fabric, mask)

let group_relax_print (n_layers, members, consts, fabric, mask) =
  let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "%d layers; members %s; consts [|%s|]; fabric [|%s|]; mask [|%s|]"
    n_layers
    (String.concat " "
       (List.map
          (fun ((r, c, t), flat) ->
            Printf.sprintf "%dx%d%s[|%s|]" r c (if t then "T" else "") (ints flat))
          members))
    (ints consts) (ints fabric)
    (String.concat ";"
       (Array.to_list (Array.map (fun b -> if b then "1" else "0") mask)))

let prop_group_relax_matches_dense =
  QCheck.Test.make ~name:"solve_group equals the dense group oracle" ~count:200
    (QCheck.make ~print:group_relax_print group_relax_gen)
    (fun (n_layers, members, consts, fabric, mask) ->
      let n_members = List.length members in
      let members =
        Array.of_list
          (List.map
             (fun ((rows, cols, torus), flat) ->
               let mesh =
                 if torus then Pim.Mesh.torus ~rows ~cols
                 else Pim.Mesh.create ~rows ~cols
               in
               let m = rows * cols in
               let rev = Array.make (n_layers * m) 0 in
               let offsets = Array.init n_layers (fun w -> (n_layers - 1 - w) * m) in
               Array.iteri (fun w off -> Array.blit flat (w * m) rev off m) offsets;
               {
                 Pathgraph.Layered.g_xdist = Pim.Mesh.x_distance_table mesh;
                 g_ydist = Pim.Mesh.y_distance_table mesh;
                 g_vectors =
                   Bigarray.Array1.of_array Bigarray.Int Bigarray.C_layout rev;
                 g_offsets = offsets;
               })
             members)
      in
      let move_cost i j = fabric.((i * n_members) + j) in
      let consts ~layer ~member = consts.((layer * n_members) + member) in
      let total = Array.length mask / n_layers in
      let allowed ~layer g = mask.((layer * total) + g) in
      Pathgraph.Layered.solve_group ~members ~move_cost ~consts ~n_layers
        ~allowed ()
      = Dense_group.solve ~members ~move_cost ~consts ~n_layers ~allowed ())

let test_group_rejects_non_metric_tables () =
  let mesh = Pim.Mesh.square 2 in
  let member =
    {
      Pathgraph.Layered.g_xdist = [| [| 0; 3 |]; [| 3; 0 |] |];
      g_ydist = Pim.Mesh.y_distance_table mesh;
      g_vectors = Bigarray.Array1.of_array Bigarray.Int Bigarray.C_layout [| 0; 0; 0; 0 |];
      g_offsets = [| 0 |];
    }
  in
  match
    Pathgraph.Layered.solve_group ~members:[| member |]
      ~move_cost:(fun _ _ -> 1)
      ~consts:(fun ~layer:_ ~member:_ -> 0)
      ~n_layers:1
      ~allowed:(fun ~layer:_ _ -> true)
      ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a non-|a-b| member table must be refused"

let prop_dp_beats_static =
  let group = group_2x2of4x4 ~inter_cost:6 () in
  QCheck.Test.make
    ~name:"migration DP never costs more than any static two-level answer"
    ~count:20
    (group_trace_arbitrary group ~max_data:6 ~max_windows:4 ~max_count:3)
    (fun trace ->
      let gp = Multi.Group_problem.create ~kernel group trace in
      let _, dp = Multi.Group_solver.evaluate gp Sched.Scheduler.Gomcds in
      List.for_all
        (fun algo ->
          let _, st = Multi.Group_solver.evaluate gp algo in
          dp.Multi.Group_schedule.total <= st.Multi.Group_schedule.total)
        Sched.Scheduler.[ Scds; Lomcds; Row_wise; Gomcds_grouped ])

let prop_jobs_invariance =
  let group = hetero ~inter_cost:3 () in
  QCheck.Test.make ~name:"group solves are byte-identical at jobs 1 and 4"
    ~count:15
    (group_trace_arbitrary group ~max_data:5 ~max_windows:3 ~max_count:3)
    (fun trace ->
      List.for_all
        (fun algo ->
          let s1 =
            Multi.Group_solver.solve
              (Multi.Group_problem.create ~jobs:1 ~kernel group trace)
              algo
          in
          let s4 =
            Multi.Group_solver.solve
              (Multi.Group_problem.create ~jobs:4 ~kernel group trace)
              algo
          in
          Multi.Group_schedule.equal s1 s4)
        Sched.Scheduler.[ Gomcds; Scds; Lomcds_grouped ])

(* A group problem solved once keeps its assignment and stage-two
   sessions; solving it again, under any algorithm and in any order,
   answers exactly what a fresh problem does — the reuse a warm serve
   pool relies on. *)
let prop_reused_problem_matches_fresh =
  let group = group_2x2of4x4 ~inter_cost:5 () in
  QCheck.Test.make ~name:"a reused group problem answers like a fresh one"
    ~count:15
    (group_trace_arbitrary group ~max_data:6 ~max_windows:3 ~max_count:3)
    (fun trace ->
      let algos =
        Sched.Scheduler.[ Gomcds; Scds; Lomcds_grouped; Gomcds; Row_wise ]
      in
      List.for_all
        (fun policy ->
          let reused = Multi.Group_problem.create ~policy ~kernel group trace in
          List.for_all
            (fun algo ->
              let fresh = Multi.Group_problem.create ~policy ~kernel group trace in
              Multi.Group_schedule.equal
                (Multi.Group_solver.solve reused algo)
                (Multi.Group_solver.solve fresh algo))
            algos)
        [ Sched.Problem.Unbounded; Sched.Problem.Bounded 2 ])

let test_migration_economics () =
  (* datum 0: heavy window-0 traffic in member 0, then window-1 traffic
     from member 1. At fabric price 50 a single remote reference ties
     with migrating (50 each) and the DP must stay (intra wins ties);
     doubling the remote traffic makes migration strictly cheaper. *)
  let group =
    Multi.Array_group.line ~inter_cost:50
      [ Pim.Mesh.square 4; Pim.Mesh.square 4 ]
  in
  let run w1_count =
    let trace =
      Gen.trace Gen.mesh44 ~n_data:1
        [ [ (0, 5, 9) ]; [ (0, 16 + 3, w1_count) ] ]
    in
    let gp = Multi.Group_problem.create ~kernel group trace in
    let plan = Multi.Group_solver.solve gp Sched.Scheduler.Gomcds in
    ( Multi.Group_schedule.array_moves plan,
      Multi.Group_schedule.total_cost plan trace )
  in
  let moves_tie, cost_tie = run 1 in
  check_int "tie stays home" 0 moves_tie;
  check_int "tie cost = one remote reference" 50 cost_tie;
  let moves_pay, cost_pay = run 2 in
  check_int "paying traffic migrates" 1 moves_pay;
  check_int "migration cost = one fabric move" 50 cost_pay

(* ------------------------------------------------------------------ *)
(* Single-array degeneracy (satellite): 1-member group == plain Mesh   *)
(* ------------------------------------------------------------------ *)

let degenerate_property mesh trace =
  let cap =
    let n_data = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
    Pim.Memory.capacity_for ~data_count:n_data ~mesh ~headroom:2
  in
  let group = Multi.Array_group.line [ mesh ] in
  List.for_all
    (fun policy ->
      List.for_all
        (fun jobs ->
          let problem =
            Sched.Problem.create ~policy ~jobs ~kernel mesh trace
          in
          let gp =
            Multi.Group_problem.create ~policy ~jobs ~kernel group trace
          in
          List.for_all
            (fun algo ->
              let plain = Sched.Scheduler.solve problem algo in
              let lifted = Multi.Group_solver.solve gp algo in
              match Multi.Group_schedule.to_mesh_schedule lifted with
              | None -> false
              | Some s ->
                  Sched.Schedule.equal plain s
                  && Multi.Group_schedule.total_cost lifted trace
                     = Sched.Schedule.total_cost plain trace)
            Sched.Scheduler.all)
        [ 1; 4 ])
    [ Sched.Problem.Unbounded; Sched.Problem.Bounded cap ]

let prop_degenerate_mesh =
  QCheck.Test.make
    ~name:
      "1-member group == plain mesh (all schedulers x policies x jobs 1,4)"
    ~count:8
    (Gen.trace_arbitrary ~max_data:6 ~max_windows:4 ~max_count:3 ())
    (fun trace -> degenerate_property Gen.mesh44 trace)

let prop_degenerate_torus =
  let torus35 = Pim.Mesh.torus ~rows:3 ~cols:5 in
  QCheck.Test.make
    ~name:
      "1-member group == plain torus (all schedulers x policies x jobs 1,4)"
    ~count:8
    (Gen.trace_arbitrary ~mesh:torus35 ~max_data:6 ~max_windows:4 ~max_count:3
       ())
    (fun trace -> degenerate_property torus35 trace)

(* ------------------------------------------------------------------ *)
(* Group faults                                                        *)
(* ------------------------------------------------------------------ *)

let test_inject_deterministic_monotone () =
  let g = group_2x2of4x4 () in
  let f1 =
    Multi.Group_fault.inject ~seed:11 ~array_rate:0.3 ~node_rate:0.2
      ~link_rate:0.1 g
  in
  let f2 =
    Multi.Group_fault.inject ~seed:11 ~array_rate:0.3 ~node_rate:0.2
      ~link_rate:0.1 g
  in
  Alcotest.(check (list int))
    "same seed, same arrays"
    (Multi.Group_fault.dead_arrays f1)
    (Multi.Group_fault.dead_arrays f2);
  let lo =
    Multi.Group_fault.inject ~seed:11 ~array_rate:0.1 ~node_rate:0.1
      ~link_rate:0.0 g
  in
  let hi =
    Multi.Group_fault.inject ~seed:11 ~array_rate:0.5 ~node_rate:0.4
      ~link_rate:0.0 g
  in
  check_bool "arrays monotone" true
    (List.for_all
       (fun a -> List.mem a (Multi.Group_fault.dead_arrays hi))
       (Multi.Group_fault.dead_arrays lo));
  check_bool "nodes monotone" true
    (List.for_all
       (fun n ->
         List.mem n (Pim.Fault.dead_nodes (Multi.Group_fault.node_fault hi)))
       (Pim.Fault.dead_nodes (Multi.Group_fault.node_fault lo)))

let test_inject_resurrection () =
  let g = group_2x2of4x4 () in
  let f =
    Multi.Group_fault.inject ~seed:5 ~array_rate:1.0 ~node_rate:1.0
      ~link_rate:0.0 g
  in
  check_int "one array survives at rate 1" 3
    (List.length (Multi.Group_fault.dead_arrays f));
  check_int "one member hosts data" 1
    (List.length (Multi.Group_fault.alive_members f g))

let test_fault_validate () =
  let g = group_2x2of4x4 () in
  check_bool "cross-member link rejected" true
    (try
       Multi.Group_fault.validate
         (Multi.Group_fault.create ~dead_links:[ (3, 16) ] ())
         g;
       false
     with Invalid_argument _ -> true);
  check_bool "member link accepted" true
    (Multi.Group_fault.validate
       (Multi.Group_fault.create ~dead_links:[ (0, 1) ] ())
       g;
     true);
  check_bool "all arrays dead rejected" true
    (try
       Multi.Group_fault.validate
         (Multi.Group_fault.create ~dead_arrays:[ 0; 1; 2; 3 ] ())
         g;
       false
     with Invalid_argument _ -> true)

let test_member_fault_localizes () =
  let g = group_2x2of4x4 () in
  let f =
    Multi.Group_fault.create ~dead_arrays:[ 3 ]
      ~dead_nodes:[ 2; 17; 20 ]
      ~dead_links:[ (16, 17) ]
      ()
  in
  Multi.Group_fault.validate f g;
  Alcotest.(check (list int))
    "member 0 slice" [ 2 ]
    (Pim.Fault.dead_nodes (Multi.Group_fault.member_fault f g 0));
  Alcotest.(check (list int))
    "member 1 slice, localized" [ 1; 4 ]
    (Pim.Fault.dead_nodes (Multi.Group_fault.member_fault f g 1));
  Alcotest.(check (list (pair int int)))
    "member 1 links localized"
    [ (0, 1) ]
    (Pim.Fault.dead_links (Multi.Group_fault.member_fault f g 1));
  check_bool "dead array lowers to a healthy member problem" true
    (Pim.Fault.is_none (Multi.Group_fault.member_fault f g 3));
  check_bool "rank in dead array is not alive" false
    (Multi.Group_fault.rank_alive f g 50)

let dead_member_hosts_nothing plan gp =
  let group = Multi.Group_problem.group gp in
  let dead = Multi.Group_fault.dead_arrays (Multi.Group_problem.fault gp) in
  let ok = ref true in
  for w = 0 to Multi.Group_schedule.n_windows plan - 1 do
    for d = 0 to Multi.Group_schedule.n_data plan - 1 do
      let m =
        Multi.Array_group.member_of_rank group
          (Multi.Group_schedule.center plan ~window:w ~data:d)
      in
      if List.mem m dead then ok := false
    done
  done;
  !ok

let prop_dead_array_excluded =
  let group = group_2x2of4x4 ~inter_cost:3 () in
  QCheck.Test.make ~name:"dead arrays never host data (DP and static paths)"
    ~count:15
    (group_trace_arbitrary group ~max_data:6 ~max_windows:3 ~max_count:3)
    (fun trace ->
      let fault = Multi.Group_fault.create ~dead_arrays:[ 1 ] () in
      let gp = Multi.Group_problem.create ~kernel ~fault group trace in
      List.for_all
        (fun algo ->
          let plan = Multi.Group_solver.solve gp algo in
          dead_member_hosts_nothing plan gp)
        Sched.Scheduler.[ Gomcds; Scds; Lomcds ])

(* ------------------------------------------------------------------ *)
(* Resilience                                                          *)
(* ------------------------------------------------------------------ *)

let prop_reschedule_never_loses =
  let group = group_2x2of4x4 ~inter_cost:5 () in
  QCheck.Test.make
    ~name:"rescheduling never pays more than riding out (single event)"
    ~count:20
    (QCheck.pair
       (group_trace_arbitrary group ~max_data:5 ~max_windows:4 ~max_count:3)
       (QCheck.make QCheck.Gen.(pair (int_range 0 3) (int_range 0 3))))
    (fun (trace, (dead_array, wpick)) ->
      let nw = Reftrace.Trace.n_windows trace in
      let window = wpick mod nw in
      let events =
        [
          {
            Multi.Group_resilience.window;
            fault = Multi.Group_fault.create ~dead_arrays:[ dead_array ] ();
          };
        ]
      in
      let gp = Multi.Group_problem.create ~kernel group trace in
      List.for_all
        (fun algo ->
          let ride =
            Multi.Group_resilience.run ~reschedule:false ~events gp algo
          in
          let resched =
            Multi.Group_resilience.run ~reschedule:true ~events gp algo
          in
          resched.Multi.Group_resilience.paid_cost
          <= ride.Multi.Group_resilience.paid_cost
          && ride.planned_cost = resched.planned_cost)
        Sched.Scheduler.[ Gomcds; Scds ])

let test_no_events_pays_planned () =
  let group = hetero ~inter_cost:4 () in
  let trace =
    Gen.trace Gen.mesh44 ~n_data:3
      [ [ (0, 1, 2); (1, 6, 1) ]; [ (2, 8, 3); (0, 3, 1) ] ]
  in
  let gp = Multi.Group_problem.create ~kernel group trace in
  let r = Multi.Group_resilience.run gp Sched.Scheduler.Gomcds in
  check_int "paid = planned with no events" r.planned_cost r.paid_cost;
  check_int "no evictions" 0 r.evicted;
  check_int "no reschedules" 0 r.reschedules

let test_eviction_accounted () =
  (* pin everything to member 0, then kill it at window 1: every datum
     must evict and the movement is accounted *)
  let group =
    Multi.Array_group.line ~inter_cost:2
      [ Pim.Mesh.square 2; Pim.Mesh.square 2 ]
  in
  let trace =
    Gen.trace Gen.mesh44 ~n_data:2
      [ [ (0, 0, 5); (1, 3, 5) ]; [ (0, 0, 1); (1, 3, 1) ] ]
  in
  let gp = Multi.Group_problem.create ~kernel group trace in
  let events =
    [
      {
        Multi.Group_resilience.window = 1;
        fault = Multi.Group_fault.create ~dead_arrays:[ 0 ] ();
      };
    ]
  in
  let r =
    Multi.Group_resilience.run ~reschedule:false ~events gp
      Sched.Scheduler.Gomcds
  in
  check_int "both data evicted" 2 r.evicted;
  check_bool "eviction movement charged" true (r.evicted_cost > 0);
  check_bool "paid exceeds planned" true (r.paid_cost > r.planned_cost)

(* ------------------------------------------------------------------ *)
(* Capacity, serialization                                             *)
(* ------------------------------------------------------------------ *)

let test_bounded_assignment_spreads () =
  let group =
    Multi.Array_group.line ~inter_cost:2
      [ Pim.Mesh.square 2; Pim.Mesh.square 2 ]
  in
  (* 16 data, capacity 2 per processor: each member holds at most 8 *)
  let refs = List.init 16 (fun d -> (d, d mod 4, 1)) in
  let trace = Gen.trace Gen.mesh44 ~n_data:16 [ refs ] in
  let gp =
    Multi.Group_problem.create ~policy:(Sched.Problem.Bounded 2) ~kernel group
      trace
  in
  let asn = Multi.Group_problem.assignment gp in
  let in_m m =
    Array.fold_left (fun acc x -> if x = m then acc + 1 else acc) 0 asn
  in
  check_int "member 0 full" 8 (in_m 0);
  check_int "member 1 takes the rest" 8 (in_m 1);
  let plan = Multi.Group_solver.solve gp Sched.Scheduler.Gomcds in
  check_bool "bounded plan respects capacity" true
    (let load = Hashtbl.create 16 in
     let ok = ref true in
     for w = 0 to Multi.Group_schedule.n_windows plan - 1 do
       Hashtbl.reset load;
       for d = 0 to 15 do
         let c = Multi.Group_schedule.center plan ~window:w ~data:d in
         let cur = Option.value ~default:0 (Hashtbl.find_opt load c) in
         Hashtbl.replace load c (cur + 1);
         if cur + 1 > 2 then ok := false
       done
     done;
     !ok);
  (* and an infeasible instance is refused with the historical message *)
  check_bool "infeasible refused" true
    (try
       Multi.Group_problem.check_feasible
         (Multi.Group_problem.create ~policy:(Sched.Problem.Bounded 1) ~kernel
            group
            (Gen.trace Gen.mesh44 ~n_data:9
               [ List.init 9 (fun d -> (d, 0, 1)) ]))
         ~who:"test";
       false
     with Invalid_argument _ -> true)

(* The warm pool's charge for a group problem counts what it holds:
   the member arenas, the weight tables of a multi-member group, and
   every stage-two session once built. *)
let test_held_bytes () =
  let group =
    Multi.Array_group.create ~inter_cost:9
      ~inter:(Pim.Mesh.create ~rows:1 ~cols:2)
      [| Pim.Mesh.square 2; Pim.Mesh.torus ~rows:3 ~cols:2 |]
  in
  let trace =
    Gen.trace Gen.mesh44 ~n_data:3
      [ [ (0, 1, 2); (1, 7, 1) ]; [ (2, 4, 3) ] ]
  in
  let gp = Multi.Group_problem.create ~kernel group trace in
  let arenas = Multi.Group_problem.max_arena_bytes gp in
  let before = Multi.Group_problem.held_bytes gp in
  check_bool "weight tables counted" true (before > arenas);
  let stage_two =
    Array.fold_left
      (fun acc -> function
        | Some (_, p) -> acc + Sched.Problem.max_arena_bytes p
        | None -> acc)
      0
      (Multi.Group_problem.stage_two gp)
  in
  check_bool "stage two built" true (stage_two > 0);
  check_bool "stage-two arenas counted" true
    (Multi.Group_problem.held_bytes gp = before + stage_two);
  check_bool "admission currency unchanged" true
    (Multi.Group_problem.max_arena_bytes gp = arenas);
  let solo =
    Multi.Group_problem.create ~kernel
      (Multi.Array_group.line [ Pim.Mesh.square 2 ])
      (Gen.trace (Pim.Mesh.square 2) ~n_data:1 [ [ (0, 1, 2) ] ])
  in
  check_bool "one member: no weight tables" true
    (Multi.Group_problem.held_bytes solo
    = Multi.Group_problem.max_arena_bytes solo)

let test_serial_roundtrip () =
  let group =
    Multi.Array_group.create ~inter_cost:9
      ~inter:(Pim.Mesh.create ~rows:1 ~cols:2)
      [| Pim.Mesh.square 2; Pim.Mesh.torus ~rows:3 ~cols:2 |]
  in
  let trace =
    Gen.trace Gen.mesh44 ~n_data:3
      [ [ (0, 1, 2); (1, 7, 1) ]; [ (2, 4, 3) ] ]
  in
  let gp = Multi.Group_problem.create ~kernel group trace in
  let plan = Multi.Group_solver.solve gp Sched.Scheduler.Gomcds in
  let text = Multi.Group_serial.to_string plan in
  check_bool "header" true
    (String.length text > 0
    && String.sub text 0 25 = "# pim-sched group-plan v1");
  let back = Multi.Group_serial.of_string text in
  check_bool "round trip" true (Multi.Group_schedule.equal plan back);
  check_bool "garbage rejected" true
    (try
       ignore (Multi.Group_serial.of_string "# pim-sched group-plan v1\nnope");
       false
     with Failure _ -> true)

let suite =
  [
    Gen.case "spec: grid form" test_spec_grid;
    Gen.case "spec: heterogeneous list form" test_spec_list;
    Gen.case "spec: malformed rejected" test_spec_rejects;
    Gen.case "two-level flat metric" test_metric;
    Gen.case "virtual-mesh embedding" test_virtual_embedding;
    Gen.to_alcotest prop_dp_matches_dense_oracle;
    Gen.to_alcotest prop_group_relax_matches_dense;
    Gen.case "group DP refuses non-metric member tables"
      test_group_rejects_non_metric_tables;
    Gen.to_alcotest prop_dp_beats_static;
    Gen.to_alcotest prop_jobs_invariance;
    Gen.to_alcotest prop_reused_problem_matches_fresh;
    Gen.case "migration economics at the fabric price" test_migration_economics;
    Gen.to_alcotest prop_degenerate_mesh;
    Gen.to_alcotest prop_degenerate_torus;
    Gen.case "inject: deterministic and monotone"
      test_inject_deterministic_monotone;
    Gen.case "inject: resurrection keeps the group solvable"
      test_inject_resurrection;
    Gen.case "fault validation" test_fault_validate;
    Gen.case "member_fault localizes global failures"
      test_member_fault_localizes;
    Gen.to_alcotest prop_dead_array_excluded;
    Gen.to_alcotest prop_reschedule_never_loses;
    Gen.case "no events pays the planned cost" test_no_events_pays_planned;
    Gen.case "whole-array eviction is accounted" test_eviction_accounted;
    Gen.case "bounded assignment spreads across members"
      test_bounded_assignment_spreads;
    Gen.case "group-plan serialization round-trips" test_serial_roundtrip;
    Gen.case "held_bytes counts weights and stage-two sessions"
      test_held_bytes;
  ]
