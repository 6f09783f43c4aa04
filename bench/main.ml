(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables 1 and 2, the Section 3.3 / Figure 1 worked example),
   characterizes the workloads, runs the ablations documented in DESIGN.md
   (A1 window granularity, A2 memory headroom, A3 mesh size, A5 topology,
   A4 refinement + lower-bound gap, A6 imposed-placement adaptation,
   A7 read replication, A8 structure vs search, A9 online hysteresis,
   A10 iteration partition, plus the congestion/makespan/energy study),
   then runs the gated perf sections and writes the BENCH_<rev>.json
   snapshot. Every repeated wall-time measurement goes through
   [best_wall_of]; there is no benchmarking library. *)

let mesh = Pim.Mesh.square 4
let sizes = [ 8; 16; 32 ]

(* Quick mode (--quick): the worked example, the gated sections and the
   snapshot, without the paper's tables and ablations — the CI smoke
   path. *)
let quick = Array.exists (fun a -> a = "--quick") Sys.argv

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Fastest of the mode's reps of [f (setup ())], timing [f] alone. Each
   rep runs after a full major GC, so one rep's garbage is not collected
   on the next rep's clock. *)
let best_wall_of setup f =
  let best = ref infinity in
  for _ = 1 to if quick then 3 else 5 do
    let x = setup () in
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    f x;
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let best_wall f = best_wall_of ignore f

(* Best-of retries for a wall-clock gate: take a sample, and while it
   does not [pass] take another (up to 8 attempts in all) and [merge] it
   into the running one. Timer noise on a loaded host can sink any single
   sample; a real regression fails every attempt. Returns the final
   sample and the attempt count. *)
let best_of ~pass ~merge measure =
  let rec go attempts acc =
    if pass acc || attempts >= 8 then (acc, attempts)
    else go (attempts + 1) (merge acc (measure ()))
  in
  go 1 (measure ())

(* [merge] for a (baseline, candidate) pair of wall times: each side
   keeps its fastest run. *)
let min2 (a, b) (a', b') = (Float.min a a', Float.min b b')

(* Both sides of a pair, measured in order ([a] first). *)
let pair a b () =
  let x = a () in
  (x, b ())

(* One session per instance: every scheduler and bound run on it shares
   the session's cost-vector cache. *)
let bounded capacity m trace =
  Sched.Problem.create ~policy:(Sched.Problem.Bounded capacity) m trace

let total problem algorithm =
  Sched.Schedule.total_cost
    (Sched.Scheduler.solve problem algorithm)
    (Sched.Problem.trace problem)

(* Counters recorded while [f] runs with observability on. *)
let counters_of f =
  Obs.with_enabled (fun () ->
      Obs.reset ();
      f ();
      let snap = Obs.Metrics.snapshot () in
      Obs.reset ();
      snap.Obs.Metrics.counters)

(* The exact work of every gated section: counters from one instrumented
   jobs=1 run, which no clock and no host can move. The [engine.*] pool
   counters depend on jobs, so none is pinned. A faster path may change
   how a section works, never how much; a changed value is a changed
   algorithm or answer, re-pinned with its reason in CHANGES.md.
   - engine_scaling: the LU 16x16 portfolio on 4x4 (the Table 1 + 2
     schedulers and the lower bound on one bounded session);
   - serve_bench: one wave of one request per scheduler, LU 16x16 on
     16x16;
   - kernel_bench: [prefetch_all] on LU 16x16 over 16x16, one batch fill
     per window and 1495 referenced axis-sum rows x (16 + 16) words x 8
     bytes (the session's zero row is charged when it opens, outside the
     count), on the mesh and on the torus;
   - multi_bench: the 2x2of8x8 group's migration DP (gomcds);
   - incremental_bench: a pure node fault reprices no row, so the warm
     patch refills none; the window edit drops and refills the rows of
     window 3's referenced data;
   - timed_bench: the live engine's degenerate report on the LU 16x16
     gomcds schedule over 16x16. *)
let pins =
  let layered ~solves ~separable ~answers ~nodes ~edges =
    [
      ("layered.solves", solves);
      ("layered.separable_solves", separable);
      ("layered.separable_answers", answers);
      ("layered.nodes_expanded", nodes);
      ("layered.edges_relaxed", edges);
    ]
  in
  [
    ( "engine_scaling",
      layered ~solves:92 ~separable:768 ~answers:676 ~nodes:17862
        ~edges:61824
      @ [ ("problem.arena_bytes", 112128) ] );
    ( "serve_bench",
      layered ~solves:176 ~separable:512 ~answers:336 ~nodes:483272
        ~edges:2365440
      @ [ ("problem.arena_bytes", 832256) ] );
    ( "kernel_bench",
      [
        ("cost.batch_fills", 15);
        ("problem.arena_bytes", 382720);
        ("cost.fault_tables", 0);
      ] );
    ( "multi_bench",
      layered ~solves:256 ~separable:0 ~answers:0 ~nodes:917504
        ~edges:4128768
      @ [ ("multi.migration_solves", 256) ] );
    ( "incremental_bench",
      [
        ("warm.problem.rows_refilled", 0);
        ("edit.problem.rows_invalidated", 170);
        ("edit.problem.rows_refilled", 170);
      ] );
    ( "timed_bench",
      [
        ("total_cycles", 291);
        ("total_volume_hops", 12768);
        ("sim.flits", 3607);
      ] );
  ]

(* Checks [counters] (an absent counter reads 0) against [key]'s pins,
   printing one row per pin, and returns the snapshot's [work] field.
   Any mismatch exits 1. *)
let work ?(where = "") key counters =
  let count name = Option.value ~default:0 (List.assoc_opt name counters) in
  let pinned = List.assoc key pins in
  List.iter
    (fun (name, want) ->
      Printf.printf "%-34s %10d  (pinned)\n" name (count name);
      if count name <> want then begin
        Printf.eprintf "FAIL: %s%s recorded %s = %d, pinned at %d\n" key where
          name (count name) want;
        exit 1
      end)
    pinned;
  ( "work",
    Obs.Json.Obj
      (List.map (fun (name, _) -> (name, Obs.Json.Int (count name))) pinned) )

(* ------------------------------------------------------------------ *)
(* Figure 1 / Section 3.3 worked example                                *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  section "Figure 1 / Section 3.3: worked example (one datum, 4x4 array)";
  Format.printf "%a@." Reftrace.Trace.pp Sched.Example.trace;
  List.iteri
    (fun i window ->
      Printf.printf "references to D in execution window %d:\n" i;
      print_string
        (Sched.Viz.window_heatmap Sched.Example.mesh window ~data:0))
    (Reftrace.Trace.windows Sched.Example.trace);
  List.iter
    (fun o -> Format.printf "%a@." Sched.Example.pp_outcome o)
    (Sched.Example.all ());
  print_endline
    "(paper: SCDS stays put, LOMCDS chases each window's optimum, GOMCDS\n\
    \ pays one small move and wins -- same structure as the original figure)"

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2                                                      *)
(* ------------------------------------------------------------------ *)

let table_rows ~algos =
  List.concat_map
    (fun bench ->
      List.map
        (fun n ->
          let trace = Workloads.Benchmarks.trace bench ~n mesh in
          let capacity = Workloads.Benchmarks.capacity bench ~n mesh in
          let problem = bounded capacity mesh trace in
          let baseline = total problem Sched.Scheduler.Row_wise in
          {
            Sched.Report.benchmark = Workloads.Benchmarks.label bench;
            size = Printf.sprintf "%dx%d" n n;
            baseline;
            entries =
              List.map
                (fun a -> Sched.Report.entry ~baseline (total problem a))
                algos;
          })
        sizes)
    Workloads.Benchmarks.all

let tables () =
  section "Table 1: total communication cost before grouping";
  print_string
    (Sched.Report.render
       ~title:
         "Processor array = 4x4, memory = 2x minimum, S.F. = row-wise \
          distribution"
       ~columns:[ "SCDS"; "LOMCDS"; "GOMCDS" ]
       (table_rows ~algos:Sched.Scheduler.[ Scds; Lomcds; Gomcds ]));
  section "Table 2: total communication cost after grouping (Algorithm 3)";
  print_string
    (Sched.Report.render
       ~title:
         "Grouping computed per datum; LOMCDS/GOMCDS columns use grouped \
          windows (SCDS is grouping-invariant)"
       ~columns:[ "SCDS"; "LOMCDS"; "GOMCDS" ]
       (table_rows
          ~algos:Sched.Scheduler.[ Scds; Lomcds_grouped; Gomcds_grouped ]))

(* ------------------------------------------------------------------ *)
(* Workload characterization                                           *)
(* ------------------------------------------------------------------ *)

let characterization () =
  section "Workload characterization (16x16 data, 4x4 array)";
  Printf.printf "%-9s %8s %9s %9s %7s | %9s %9s\n" "workload" "drift"
    "entropy" "sharing" "reuse" "G vs SF" "G vs SCDS";
  let show label trace =
    let p = Reftrace.Stats.profile mesh trace in
    let problem =
      Sched.Problem.create
        ~policy:
          (Sched.Problem.headroom_policy ~headroom:2
             ~processors:(Pim.Mesh.size mesh) trace)
        mesh trace
    in
    let sf = total problem Sched.Scheduler.Row_wise in
    let scds = total problem Sched.Scheduler.Scds in
    let g = total problem Sched.Scheduler.Gomcds in
    Printf.printf "%-9s %8.2f %8.2fb %9.2f %7.2f | %8.1f%% %8.1f%%\n" label
      p.Reftrace.Stats.drift p.Reftrace.Stats.entropy
      p.Reftrace.Stats.sharing_degree p.Reftrace.Stats.reuse
      (Sched.Scheduler.improvement ~baseline:sf ~cost:g)
      (Sched.Scheduler.improvement ~baseline:scds ~cost:g)
  in
  List.iter
    (fun b ->
      show
        ("bench " ^ Workloads.Benchmarks.label b)
        (Workloads.Benchmarks.trace b ~n:16 mesh))
    Workloads.Benchmarks.all;
  show "stencil" (Workloads.Stencil.trace ~n:16 ~sweeps:8 mesh);
  show "tc" (Workloads.Transitive_closure.trace ~n:16 mesh);
  show "fft" (Workloads.Fft_transpose.trace ~n:16 mesh);
  show "cholesky" (Workloads.Cholesky.trace ~n:16 mesh);
  show "reduce" (Workloads.Reduction.trace ~n:16 ~bins:16 mesh);
  show "wavefront" (Workloads.Wavefront.trace ~n:16 mesh);
  print_endline
    "(drift = mean hot-spot displacement between windows; entropy = spread\n\
    \ of references over processors. \"G vs SCDS\" isolates the movement\n\
    \ benefit: zero-drift workloads gain nothing over a good static\n\
    \ placement)"

(* ------------------------------------------------------------------ *)
(* Ablation A1: execution-window granularity                           *)
(* ------------------------------------------------------------------ *)

let ablation_window_size () =
  section "Ablation A1: window granularity (LU 16x16, 4x4 array)";
  let t = Workloads.Lu.trace ~n:16 mesh in
  let n_windows = Reftrace.Trace.n_windows t in
  (* every [k] consecutive windows merged into one *)
  let coarsen k =
    Reftrace.Trace.create (Reftrace.Trace.space t)
      (List.init
         ((n_windows + k - 1) / k)
         (fun g ->
           Reftrace.Window.merge_list
             (List.init
                (min k (n_windows - (g * k)))
                (fun i -> Reftrace.Trace.window t ((g * k) + i)))))
  in
  let capacity =
    Workloads.Benchmarks.capacity Workloads.Benchmarks.B1 ~n:16 mesh
  in
  Printf.printf "%8s %8s %10s %10s %10s\n" "steps/w" "windows" "SCDS" "LOMCDS"
    "GOMCDS";
  List.iter
    (fun k ->
      let coarse = coarsen k in
      let problem = bounded capacity mesh coarse in
      Printf.printf "%8d %8d %10d %10d %10d\n" k
        (Reftrace.Trace.n_windows coarse)
        (total problem Sched.Scheduler.Scds)
        (total problem Sched.Scheduler.Lomcds)
        (total problem Sched.Scheduler.Gomcds))
    [ 1; 2; 4; 8; 15 ];
  print_endline
    "(fine windows expose more movement opportunities; one giant window\n\
    \ collapses every scheduler onto SCDS)"

(* ------------------------------------------------------------------ *)
(* Ablation A2: memory headroom                                        *)
(* ------------------------------------------------------------------ *)

let ablation_headroom () =
  section "Ablation A2: memory headroom (matrix squaring 16x16)";
  let t = Workloads.Matmul.trace ~n:16 mesh in
  let data_count = Reftrace.Data_space.size (Reftrace.Trace.space t) in
  (* one session; [with_policy] swaps the capacity and keeps the caches *)
  let free = Sched.Problem.create mesh t in
  let row problem =
    Printf.sprintf "%10d %10d %10d"
      (total problem Sched.Scheduler.Scds)
      (total problem Sched.Scheduler.Lomcds)
      (total problem Sched.Scheduler.Gomcds)
  in
  Printf.printf "%9s %9s %10s %10s %10s\n" "headroom" "capacity" "SCDS"
    "LOMCDS" "GOMCDS";
  List.iter
    (fun headroom ->
      let capacity = Pim.Memory.capacity_for ~data_count ~mesh ~headroom in
      Printf.printf "%9d %9d %s\n" headroom capacity
        (row (Sched.Problem.with_policy free (Sched.Problem.Bounded capacity))))
    [ 1; 2; 3; 4 ];
  Printf.printf "%9s %9s %s\n" "inf" "-" (row free);
  print_endline
    "(tight memories push data off their optimal centers; the paper's 2x\n\
    \ rule is close to the unconstrained optimum)"

(* ------------------------------------------------------------------ *)
(* Ablation A3: mesh size                                              *)
(* ------------------------------------------------------------------ *)

let ablation_mesh_size () =
  section "Ablation A3: processor array size (CODE 16x16)";
  Printf.printf "%6s %10s %10s %10s %10s %8s\n" "mesh" "S.F." "SCDS" "LOMCDS"
    "GOMCDS" "G %";
  List.iter
    (fun side ->
      let m = Pim.Mesh.square side in
      let t = Workloads.Code_kernel.trace ~n:16 m in
      let problem =
        bounded
          (Pim.Memory.capacity_for ~data_count:256 ~mesh:m ~headroom:2)
          m t
      in
      let sf = total problem Sched.Scheduler.Row_wise in
      let g = total problem Sched.Scheduler.Gomcds in
      Printf.printf "%6s %10d %10d %10d %10d %7.1f%%\n"
        (Printf.sprintf "%dx%d" side side)
        sf
        (total problem Sched.Scheduler.Scds)
        (total problem Sched.Scheduler.Lomcds)
        g
        (Sched.Scheduler.improvement ~baseline:sf ~cost:g))
    [ 2; 4; 8 ];
  print_endline
    "(bigger arrays mean longer routes and more scheduling headroom)"

(* ------------------------------------------------------------------ *)
(* Ablation A5: mesh vs torus topology                                 *)
(* ------------------------------------------------------------------ *)

let ablation_topology () =
  section "Ablation A5: mesh vs torus (16x16 data, 4x4 array)";
  Printf.printf "%-4s %-6s %10s %10s %10s %10s\n" "B." "topo" "S.F." "SCDS"
    "LOMCDS" "GOMCDS";
  List.iter
    (fun bench ->
      List.iter
        (fun (label, m) ->
          let t = Workloads.Benchmarks.trace bench ~n:16 m in
          let problem =
            bounded (Workloads.Benchmarks.capacity bench ~n:16 m) m t
          in
          Printf.printf "%-4s %-6s %10d %10d %10d %10d\n"
            (Workloads.Benchmarks.label bench)
            label
            (total problem Sched.Scheduler.Row_wise)
            (total problem Sched.Scheduler.Scds)
            (total problem Sched.Scheduler.Lomcds)
            (total problem Sched.Scheduler.Gomcds))
        [ ("mesh", Pim.Mesh.square 4); ("torus", Pim.Mesh.square ~wrap:true 4) ])
    Workloads.Benchmarks.[ B1; B2; B5 ];
  print_endline
    "(wrap-around links shorten worst-case routes; the scheduling gains\n\
    \ persist on both topologies)"

(* ------------------------------------------------------------------ *)
(* Ablation A4: refinement ladder and gap to the lower bound           *)
(* ------------------------------------------------------------------ *)

let ablation_refinement () =
  section "Ablation A4: fixed-point refinement and gap to lower bound (16x16)";
  Printf.printf "%-4s %10s | %10s %8s | %10s %8s | %10s %8s\n" "B."
    "low. bound" "GOMCDS" "gap" "LOM+grp" "gap" "best-ref" "gap";
  List.iter
    (fun bench ->
      let n = 16 in
      let trace = Workloads.Benchmarks.trace bench ~n mesh in
      let problem =
        bounded (Workloads.Benchmarks.capacity bench ~n mesh) mesh trace
      in
      let bound = Sched.Bounds.lower_bound_in problem in
      let g = total problem Sched.Scheduler.Gomcds in
      let lg = total problem Sched.Scheduler.Lomcds_grouped in
      let br = total problem Sched.Scheduler.Best_refined in
      Printf.printf "%-4s %10d | %10d %7.1f%% | %10d %7.1f%% | %10d %7.1f%%\n"
        (Workloads.Benchmarks.label bench)
        bound g
        (Sched.Bounds.gap ~bound ~cost:g)
        lg
        (Sched.Bounds.gap ~bound ~cost:lg)
        br
        (Sched.Bounds.gap ~bound ~cost:br))
    Workloads.Benchmarks.all;
  print_endline
    "(lower bound = sum of per-datum unconstrained optima; best-ref =\n\
    \ portfolio of all constructive schedulers, each refined to a fixed\n\
    \ point under the paper's 2x memory rule)"

(* ------------------------------------------------------------------ *)
(* Ablation A6: run-time adaptation from an imposed placement          *)
(* ------------------------------------------------------------------ *)

let ablation_adaptation () =
  section "Ablation A6: adaptation from an imposed row-wise placement (16x16)";
  Printf.printf "%-4s %12s %10s %10s %11s\n" "B." "imposed-stat" "adaptive"
    "free opt" "recovered";
  List.iter
    (fun bench ->
      let trace = Workloads.Benchmarks.trace bench ~n:16 mesh in
      let initial =
        Sched.Baseline.row_wise mesh (Reftrace.Trace.space trace)
      in
      let r =
        Sched.Adapt.recovery ~initial (Sched.Problem.create mesh trace)
      in
      Printf.printf "%-4s %12d %10d %10d %10.1f%%\n"
        (Workloads.Benchmarks.label bench)
        r.Sched.Adapt.imposed_static r.Sched.Adapt.adaptive
        r.Sched.Adapt.free_optimal
        (100. *. r.Sched.Adapt.recovered))
    Workloads.Benchmarks.all;
  print_endline
    "(even when the initial distribution is dictated by the host, run-time\n\
    \ movement recovers most of the headroom between the imposed placement\n\
    \ and the free optimum — the paper's motivation, quantified)"

(* ------------------------------------------------------------------ *)
(* Ablation A7: read replication (relaxing "one copy of data")         *)
(* ------------------------------------------------------------------ *)

let ablation_replication () =
  section "Ablation A7: read replication (16x16, paper capacity)";
  Printf.printf "%-4s %12s | %10s %10s %10s %10s\n" "B." "1-copy bound"
    "k=1" "k=2" "k=4" "k=8";
  List.iter
    (fun bench ->
      let trace = Workloads.Benchmarks.trace bench ~n:16 mesh in
      let problem =
        bounded (Workloads.Benchmarks.capacity bench ~n:16 mesh) mesh trace
      in
      let cost k =
        let r = Sched.Replicated.schedule ~max_copies:k problem in
        (Sched.Replicated.cost r mesh trace).Sched.Replicated.total
      in
      Printf.printf "%-4s %12d | %10d %10d %10d %10d\n"
        (Workloads.Benchmarks.label bench)
        (Sched.Bounds.lower_bound_in problem)
        (cost 1) (cost 2) (cost 4) (cost 8))
    Workloads.Benchmarks.all;
  print_endline
    "(k = copies allowed per datum; k=1 is plain GOMCDS; replication can\n\
    \ undercut the single-copy lower bound on broadcast-heavy windows,\n\
    \ relaxing the paper's one-copy simplification)"

(* ------------------------------------------------------------------ *)
(* Ablation A8: structure vs search (annealing comparator)             *)
(* ------------------------------------------------------------------ *)

let ablation_annealing () =
  section "Ablation A8: structured DP vs simulated annealing (16x16)";
  Printf.printf "%-4s %10s | %12s %12s %12s | %10s\n" "B." "S.F." "SA 10k"
    "SA 100k" "SA 400k" "GOMCDS";
  List.iter
    (fun bench ->
      let trace = Workloads.Benchmarks.trace bench ~n:16 mesh in
      let problem =
        bounded (Workloads.Benchmarks.capacity bench ~n:16 mesh) mesh trace
      in
      let sa iterations =
        let _, stats = Sched.Annealing.anneal ~iterations problem in
        stats.Sched.Annealing.final_cost
      in
      Printf.printf "%-4s %10d | %12d %12d %12d | %10d\n"
        (Workloads.Benchmarks.label bench)
        (total problem Sched.Scheduler.Row_wise)
        (sa 10_000) (sa 100_000) (sa 400_000)
        (total problem Sched.Scheduler.Gomcds))
    Workloads.Benchmarks.[ B1; B2; B5 ];
  print_endline
    "(a structure-blind metaheuristic needs orders of magnitude more work\n\
    \ and still trails the shortest-path scheduler -- the cost-graph\n\
    \ structure is doing real work)"

(* ------------------------------------------------------------------ *)
(* Ablation A10: iteration-partition sensitivity                       *)
(* ------------------------------------------------------------------ *)

let ablation_partition () =
  section "Ablation A10: iteration partition (LU 16x16, 4x4 array)";
  Printf.printf "%-12s %10s %10s %10s %10s\n" "partition" "S.F." "SCDS"
    "LOMCDS" "GOMCDS";
  List.iter
    (fun partition ->
      let t = Workloads.Lu.trace ~partition ~n:16 mesh in
      let problem =
        bounded
          (Workloads.Benchmarks.capacity Workloads.Benchmarks.B1 ~n:16 mesh)
          mesh t
      in
      Printf.printf "%-12s %10d %10d %10d %10d\n"
        (Workloads.Iteration_space.name partition)
        (total problem Sched.Scheduler.Row_wise)
        (total problem Sched.Scheduler.Scds)
        (total problem Sched.Scheduler.Lomcds)
        (total problem Sched.Scheduler.Gomcds))
    Workloads.Iteration_space.all;
  print_endline
    "(the paper's other pre-stage: how iterations map to processors. The\n\
    \ straight-forward layout is hostage to the partition (3800-9988),\n\
    \ while the data schedulers equalize it away (~2700-3200): good data\n\
    \ scheduling compensates for a bad iteration partition)"

(* ------------------------------------------------------------------ *)
(* Ablation A9: online scheduling with hysteresis                      *)
(* ------------------------------------------------------------------ *)

let ablation_online () =
  section "Ablation A9: online hysteresis vs offline optimum (16x16)";
  Printf.printf "%-4s %10s | %10s %10s %10s %10s | %10s\n" "B." "static"
    "th=0.5" "th=1" "th=2" "th=8" "offline";
  List.iter
    (fun bench ->
      let trace = Workloads.Benchmarks.trace bench ~n:16 mesh in
      let initial =
        Sched.Baseline.row_wise mesh (Reftrace.Trace.space trace)
      in
      let problem = Sched.Problem.create mesh trace in
      let online theta =
        Sched.Schedule.total_cost
          (Sched.Online.schedule ~theta ~initial problem)
          trace
      in
      let r = Sched.Adapt.recovery ~initial problem in
      Printf.printf "%-4s %10d | %10d %10d %10d %10d | %10d\n"
        (Workloads.Benchmarks.label bench)
        r.Sched.Adapt.imposed_static (online 0.5) (online 1.) (online 2.)
        (online 8.) r.Sched.Adapt.adaptive)
    Workloads.Benchmarks.all;
  print_endline
    "(online sees each window only as it executes; theta = assumed\n\
    \ persistence of the current pattern. Moderate hysteresis lands within\n\
    \ a small factor of the clairvoyant offline schedule)"

(* ------------------------------------------------------------------ *)
(* Congestion study (simulator-measured)                               *)
(* ------------------------------------------------------------------ *)

let congestion () =
  section "Congestion study: simulator-measured traffic (CODE 16x16, 4x4)";
  let t = Workloads.Code_kernel.trace ~n:16 mesh in
  let problem =
    bounded (Pim.Memory.capacity_for ~data_count:256 ~mesh ~headroom:2) mesh t
  in
  Printf.printf "%-16s %10s %10s %12s %10s %10s %10s\n" "algorithm" "total"
    "max link" "imbalance" "lat.bound" "makespan" "energy";
  List.iter
    (fun algo ->
      let s = Sched.Scheduler.solve problem algo in
      let rounds = Sched.Schedule.to_rounds s t in
      let report = Pim.Simulator.run mesh rounds in
      let timed = Pim.Timed_simulator.run mesh rounds in
      let max_link =
        match Pim.Link_stats.max_link report.Pim.Simulator.link_stats with
        | Some (_, _, v) -> v
        | None -> 0
      in
      let latency =
        List.fold_left
          (fun acc r -> acc + r.Pim.Simulator.latency_bound)
          0 report.Pim.Simulator.rounds
      in
      Printf.printf "%-16s %10d %10d %12.2f %10d %10d %10.0f\n"
        (Sched.Scheduler.name algo)
        report.Pim.Simulator.total_cost max_link
        (Pim.Link_stats.imbalance report.Pim.Simulator.link_stats)
        latency timed.Pim.Timed_simulator.total_cycles
        (Pim.Energy.of_report mesh timed))
    Sched.Scheduler.[ Row_wise; Scds; Lomcds; Gomcds; Lomcds_grouped ];
  print_endline
    "(lat.bound = per-window max(per-link load, max hop count), a lower\n\
    \ bound; makespan = store-and-forward cycles under FIFO contention;\n\
    \ energy = 10/hop transport + 0.05/proc/cycle leakage)";
  (* negative result, kept honest: in a purely communication-bound model,
     issuing migrations one window early does not shorten the makespan --
     it only congests the previous window's reference traffic *)
  let s = Sched.Scheduler.solve problem Sched.Scheduler.Gomcds in
  let span prefetch =
    (Pim.Timed_simulator.run mesh (Sched.Schedule.to_rounds ~prefetch s t))
      .Pim.Timed_simulator.total_cycles
  in
  Printf.printf
    "prefetching migrations one window early: makespan %d -> %d (no\n\
     compute phase to hide the movement behind)\n"
    (span false) (span true)

(* ------------------------------------------------------------------ *)
(* Engine scaling                                                      *)
(* ------------------------------------------------------------------ *)

(* Regenerates the LU 16x16 rows of Tables 1 and 2 (row-wise baseline,
   SCDS, LOMCDS, GOMCDS, both grouped variants, plus the lower bound) on
   one [Problem.t] shared by every run, at jobs in {1, 2, 4}. Extra
   domains scale the cache fill and the per-datum DPs on multi-core
   hosts. *)
let engine_scaling () =
  section "Engine scaling (Table 1 + 2 rows, LU 16x16 on 4x4)";
  let t = Workloads.Lu.trace ~n:16 mesh in
  let capacity =
    Workloads.Benchmarks.capacity Workloads.Benchmarks.B1 ~n:16 mesh
  in
  let algos =
    Sched.Scheduler.
      [ Row_wise; Scds; Lomcds; Gomcds; Lomcds_grouped; Gomcds_grouped ]
  in
  let engine jobs () =
    let problem =
      Sched.Problem.create ~policy:(Sched.Problem.Bounded capacity) ~jobs mesh
        t
    in
    List.iter (fun a -> ignore (Sched.Scheduler.solve problem a)) algos;
    ignore (Sched.Bounds.lower_bound_in problem)
  in
  let time = best_wall in
  (* jobs=4 vs jobs=1 is the CI gate (>= 0.95x, [best_of] retries):
     the engine claims chunks of ~n/(k*8) indices, so on a host whose
     effective pool is one domain the two settings run identical work and
     differ only by timer noise, while a real pool must not regress. The
     pool's helper domains are spawned on first demand and then tax every
     later minor GC, jobs=1 runs included, so one warm-up run at jobs=4
     puts both sides in the same process state before either is timed. *)
  engine 4 ();
  let (t1, t4), attempts =
    best_of ~merge:min2
      ~pass:(fun (t1, t4) -> t1 >= t4 *. 0.95)
      (pair (fun () -> time (engine 1)) (fun () -> time (engine 4)))
  in
  let t2 = time (engine 2) in
  List.iter
    (fun (jobs, s) ->
      Printf.printf "%-28s %10.1f ms  %7.2fx\n"
        (Printf.sprintf "shared Problem.t, jobs=%d" jobs)
        (s *. 1e3) (t1 /. s))
    [ (1, t1); (2, t2); (4, t4) ];
  Printf.printf "jobs=4/jobs=1 %.2fx (gate >= 0.95x, best of %d attempt(s))\n"
    (t1 /. t4) attempts;
  if t1 < t4 *. 0.95 then begin
    Printf.eprintf
      "FAIL: engine at jobs=4 fell behind jobs=1 on LU 16x16 (%.1f ms vs \
       %.1f ms)\n"
      (t4 *. 1e3) (t1 *. 1e3);
    exit 1
  end;
  let work = work "engine_scaling" (counters_of (engine 1)) in
  Obs.Json.Obj
    [
      ("workload", Obs.Json.String "lu-16x16");
      ("mesh", Obs.Json.String "4x4");
      ("jobs1_ms", Obs.Json.Float (t1 *. 1e3));
      ("jobs2_ms", Obs.Json.Float (t2 *. 1e3));
      ("jobs4_ms", Obs.Json.Float (t4 *. 1e3));
      ("jobs4_vs_jobs1", Obs.Json.Float (t1 /. t4));
      ("attempts", Obs.Json.Int attempts);
      work;
    ]

(* ------------------------------------------------------------------ *)
(* Kernel: the session's cost-row fill                                 *)
(* ------------------------------------------------------------------ *)

(* [Problem.prefetch_all] on the LU 16x16 workload mapped onto a 16x16
   array, once on the plain mesh and once on the torus, so the
   circular-prefix-sum path has its own trail in BENCH_<rev>.json. The
   wall is an info row; the fill's work is pinned ([pins]). *)
let kernel_bench_on ~topology kmesh =
  section
    (Printf.sprintf "Kernel: prefetch_all cost-row fill (LU 16x16 on 16x16 %s)"
       topology);
  let trace = Workloads.Lu.trace ~n:16 kmesh in
  let capacity =
    Pim.Memory.capacity_for
      ~data_count:(Reftrace.Data_space.size (Reftrace.Trace.space trace))
      ~mesh:kmesh ~headroom:2
  in
  let session () =
    Sched.Problem.create ~policy:(Sched.Problem.Bounded capacity) ~jobs:1
      kmesh trace
  in
  (* context creation stays outside the timer *)
  let prefetch = best_wall_of session Sched.Problem.prefetch_all in
  Printf.printf "%-34s %10.3f ms\n" "prefetch_all" (prefetch *. 1e3);
  let problem = session () in
  let work =
    work "kernel_bench" ~where:(" on " ^ topology)
      (counters_of (fun () -> Sched.Problem.prefetch_all problem))
  in
  Obs.Json.Obj
    [
      ("workload", Obs.Json.String "lu-16x16");
      ("mesh", Obs.Json.String "16x16");
      ("topology", Obs.Json.String topology);
      ("prefetch_ms", Obs.Json.Float (prefetch *. 1e3));
      work;
    ]

(* The 16x16 mesh and torus the kernel and incremental sections run on. *)
let topologies =
  [ ("mesh", Pim.Mesh.square 16); ("torus", Pim.Mesh.square ~wrap:true 16) ]

let on_topologies bench =
  Obs.Json.List
    (List.map (fun (topology, kmesh) -> bench ~topology kmesh) topologies)

let kernel_bench () = on_topologies kernel_bench_on

(* ------------------------------------------------------------------ *)
(* Serve gates (pimsched serve daemon path)                            *)
(* ------------------------------------------------------------------ *)

(* One wave of requests cycling the five schedulers on LU 16x16 through
   [Serve.Server.process_batch]. Two gates:

   - throughput: the jobs=4 wave must not fall behind jobs=1 (>= 0.95x,
     [best_of] retries). The two settings run identical deterministic
     work per request, so on a host the engine caps to one domain they
     differ only by timer noise;
   - failpoints: the chaos hooks are compiled into the serve path
     unconditionally, and armed-but-idle (registry enabled, every site
     Off) must keep the p50 of the per-request solve latency within
     1.10x of the disabled p50.

   Client-visible latency over real pipes (p50, tail, RSS) is measured
   by perfbench/, not here. *)
let serve_bench () =
  section "Serve gates (pimsched serve, LU 16x16 on 16x16)";
  let algos =
    [ "scds"; "lomcds"; "gomcds"; "lomcds-grouped"; "gomcds-grouped" ]
  in
  let n_requests = if quick then 20 else 40 in
  let lines =
    List.init n_requests (fun i ->
        Printf.sprintf
          {|{"id":%d,"workload":"1","size":16,"mesh":{"rows":16,"cols":16},"algorithm":"%s"}|}
          i
          (List.nth algos (i mod List.length algos)))
  in
  let server jobs =
    let default = Serve.Server.default_config () in
    Serve.Server.create
      ~config:{ default with Serve.Server.jobs; batch = n_requests }
      ()
  in
  (* (throughput in requests/s, p50 solve latency in s) of one wave *)
  let measure jobs =
    let server = server jobs in
    (* warm the shared context (windows, merged window) outside the
       timer; a daemon pays that once per instance, not per request *)
    ignore (Serve.Server.process_batch server [ List.hd lines ]);
    Gc.full_major ();
    let t0 = Obs.Clock.now_s () in
    let results = Serve.Server.process_batch server lines in
    let wall = Obs.Clock.now_s () -. t0 in
    let durs = Array.of_list (List.sort Float.compare (List.map snd results)) in
    (float_of_int n_requests /. wall, durs.(Array.length durs / 2))
  in
  let faster r m = if fst m > fst r then m else r in
  let ((thr1, _), (thr4, _)), attempts =
    best_of
      ~merge:(fun (b1, b4) (m1, m4) -> (faster b1 m1, faster b4 m4))
      ~pass:(fun ((t1, _), (t4, _)) -> t4 >= t1)
      (pair (fun () -> measure 1) (fun () -> measure 4))
  in
  let throughput = thr4 /. thr1 in
  Printf.printf
    "jobs=4/jobs=1 wave throughput %.2fx (gate >= 0.95x, best of %d \
     attempt(s))\n"
    throughput attempts;
  if throughput < 0.95 then begin
    Printf.eprintf
      "FAIL: serve wave at jobs=4 fell behind jobs=1 (%.1f vs %.1f req/s)\n"
      thr4 thr1;
    exit 1
  end;
  let fp_ratio, _ =
    best_of
      ~merge:(fun _ latest -> latest)
      ~pass:(fun ratio -> ratio <= 1.10)
      (fun () ->
        let _, base = measure 1 in
        Obs.Failpoint.configure "";
        let _, armed =
          Fun.protect ~finally:Obs.Failpoint.clear (fun () -> measure 1)
        in
        armed /. base)
  in
  Printf.printf "failpoints armed-but-idle p50 ratio %.2fx (gate <= 1.10x)\n"
    fp_ratio;
  if fp_ratio > 1.10 then begin
    Printf.eprintf
      "FAIL: armed-but-idle failpoints tax serve p50 %.2fx (> 1.10x)\n"
      fp_ratio;
    exit 1
  end;
  let one_each = List.filteri (fun i _ -> i < List.length algos) lines in
  let work =
    work "serve_bench"
      (counters_of (fun () ->
           ignore (Serve.Server.process_batch (server 1) one_each)))
  in
  Obs.Json.Obj
    [
      ("workload", Obs.Json.String "lu-16x16");
      ("mesh", Obs.Json.String "16x16");
      ("algorithms", Obs.Json.List (List.map (fun a -> Obs.Json.String a) algos));
      ("requests", Obs.Json.Int n_requests);
      ("throughput_jobs4_vs_jobs1", Obs.Json.Float throughput);
      ("attempts", Obs.Json.Int attempts);
      ("failpoint_idle_p50_ratio", Obs.Json.Float fp_ratio);
      work;
    ]

(* ------------------------------------------------------------------ *)
(* Multi-array scheduling (Array_group tier)                           *)
(* ------------------------------------------------------------------ *)

(* Two facts about the group tier, the first gated:

   - degenerate overhead: solving LU 16x16 through a 1-member group must
     not regress the plain single-mesh solve. The group path delegates
     wholesale ([Group_solver] hands the member session to
     [Sched.Scheduler.solve]), so the only admissible cost is
     [Group_problem.create]'s thin wrapper. Gate: group wall <= 1.15x
     plain wall, [best_of] retries to damp timer noise; the lifted
     schedule must also be identical, because a timing gate on a
     different answer proves nothing.
   - 2x2of8x8 info rows: the migration DP (gomcds) and the static
     two-level path (scds) on LU 16x16 laid out on the group's virtual
     mesh, against the group-metric lower bound. Their walls are not
     gated; the migration DP's work is pinned ([pins]). *)
let multi_bench () =
  section "Multi-array scheduling (Array_group tier, LU 16x16)";
  let n = 16 in
  let big = Pim.Mesh.square n in
  let trace = Workloads.Lu.trace ~n big in
  let policy =
    Sched.Problem.headroom_policy ~headroom:2
      ~processors:(Pim.Mesh.size big) trace
  in
  let time = best_wall in
  let plain () =
    let problem = Sched.Problem.create ~policy big trace in
    ignore (Sched.Scheduler.solve problem Sched.Scheduler.Gomcds)
  in
  let group1 = Multi.Array_group.line [ big ] in
  let grouped () =
    let gp = Multi.Group_problem.create ~policy group1 trace in
    ignore (Multi.Group_solver.solve gp Sched.Scheduler.Gomcds)
  in
  let plain_sched =
    Sched.Scheduler.solve
      (Sched.Problem.create ~policy big trace)
      Sched.Scheduler.Gomcds
  in
  let lifted =
    Multi.Group_solver.solve
      (Multi.Group_problem.create ~policy group1 trace)
      Sched.Scheduler.Gomcds
  in
  (match Multi.Group_schedule.to_mesh_schedule lifted with
  | Some s when Sched.Schedule.equal s plain_sched -> ()
  | _ ->
      Printf.eprintf
        "FAIL: degenerate 1-array group schedule differs from the plain \
         mesh schedule\n";
      exit 1);
  let (t_plain, t_group), attempts =
    best_of ~merge:min2
      ~pass:(fun (p, g) -> g <= 1.15 *. p)
      (pair (fun () -> time plain) (fun () -> time grouped))
  in
  let overhead = t_group /. t_plain in
  Printf.printf
    "degenerate 1-array: plain %.2f ms, group %.2f ms (%.2fx, best of %d \
     attempt(s))\n"
    (t_plain *. 1e3) (t_group *. 1e3) overhead attempts;
  if t_group > 1.15 *. t_plain then begin
    Printf.eprintf
      "FAIL: degenerate group solve regressed the plain solve (%.2f ms vs \
       %.2f ms, %.2fx > 1.15x)\n"
      (t_group *. 1e3) (t_plain *. 1e3) overhead;
    exit 1
  end;
  let spec = "2x2of8x8" in
  let group = Multi.Array_group.of_spec spec in
  let gtrace =
    Multi.Array_group.remap_virtual_trace group
      (Workloads.Lu.trace ~n (Multi.Array_group.virtual_mesh group))
  in
  let gp = Multi.Group_problem.create group gtrace in
  let run algo =
    let t0 = Unix.gettimeofday () in
    let plan, breakdown = Multi.Group_solver.evaluate gp algo in
    (plan, breakdown, Unix.gettimeofday () -. t0)
  in
  let dp_plan, dp_cost, dp_wall = run Sched.Scheduler.Gomcds in
  let _, st_cost, st_wall = run Sched.Scheduler.Scds in
  let bound =
    Option.value ~default:0 (Multi.Group_solver.lower_bound gp)
  in
  Printf.printf
    "%s (inter-cost 10): gomcds total=%d, %d array move(s), %.1f ms; scds \
     total=%d, %.1f ms; lower bound %d\n"
    spec dp_cost.Multi.Group_schedule.total
    (Multi.Group_schedule.array_moves dp_plan)
    (dp_wall *. 1e3) st_cost.Multi.Group_schedule.total (st_wall *. 1e3)
    bound;
  let work =
    work "multi_bench"
      (counters_of (fun () ->
           ignore
             (Multi.Group_solver.evaluate
                (Multi.Group_problem.create group gtrace)
                Sched.Scheduler.Gomcds)))
  in
  Obs.Json.Obj
    [
      ("workload", Obs.Json.String "lu-16x16");
      ( "degenerate",
        Obs.Json.Obj
          [
            ("plain_ms", Obs.Json.Float (t_plain *. 1e3));
            ("group_ms", Obs.Json.Float (t_group *. 1e3));
            ("overhead", Obs.Json.Float overhead);
            ("attempts", Obs.Json.Int attempts);
          ] );
      ( "group",
        Obs.Json.Obj
          [
            ("arrays", Obs.Json.String spec);
            ("inter_cost", Obs.Json.Int 10);
            ("gomcds_total", Obs.Json.Int dp_cost.Multi.Group_schedule.total);
            ( "gomcds_array_moves",
              Obs.Json.Int (Multi.Group_schedule.array_moves dp_plan) );
            ("gomcds_ms", Obs.Json.Float (dp_wall *. 1e3));
            ("scds_total", Obs.Json.Int st_cost.Multi.Group_schedule.total);
            ("scds_ms", Obs.Json.Float (st_wall *. 1e3));
            ("lower_bound", Obs.Json.Int bound);
          ] );
      work;
    ]

(* ------------------------------------------------------------------ *)
(* Incremental re-solve (warm sessions, dirty rows)                    *)
(* ------------------------------------------------------------------ *)

(* Two facts about the incremental core on LU 16x16, the first a CI gate
   on both topologies (the process exits nonzero on regression):

   - warm re-solve: patching a running session to a node fault
     ([Problem.with_fault_patch] + [prefetch_all]) must prepare in
     <= 0.5x the wall of a cold [of_context] + [prefetch_all] under the
     same fault — a pure node fault reprices no row, so the patch
     carries every built row over. The patched session's gomcds plan
     is checked byte-identical to the cold session's first (a faster
     wrong answer proves nothing).
   - window edit (info rows): [Problem.invalidate] after an in-place
     [Window.add] edit, then re-prefetch. Not wall-gated — the refill
     set depends on the edit — but the edited session's plan is checked
     byte-identical to a cold session over the same edited context.

   Both refills are pinned exactly ([pins]): the warm patch refills no
   row, and the edit refills the rows it invalidated. *)
let incremental_bench_on ~topology kmesh =
  section
    (Printf.sprintf "Incremental re-solve (LU 16x16 on 16x16 %s)" topology);
  let trace = Workloads.Lu.trace ~n:16 kmesh in
  let policy =
    Sched.Problem.headroom_policy ~headroom:2
      ~processors:(Pim.Mesh.size kmesh) trace
  in
  let ctx = Sched.Context.create ~policy kmesh trace in
  let fault = Pim.Fault.create ~dead_nodes:[ 17; 100; 203 ] () in
  let time = best_wall in
  let plan_of problem =
    Sched.Schedule_serial.to_string
      (Sched.Scheduler.solve problem Sched.Scheduler.Gomcds)
  in
  (* byte-identity first: the warm session must answer like the cold one *)
  let base = Sched.Problem.of_context ctx in
  Sched.Problem.prefetch_all base;
  let cold_session = Sched.Problem.of_context ~fault ctx in
  if plan_of (Sched.Problem.with_fault_patch base fault) <> plan_of cold_session
  then begin
    Printf.eprintf
      "FAIL: patched warm session plan differs from cold rebuild (%s)\n"
      topology;
    exit 1
  end;
  let cold () =
    Sched.Problem.prefetch_all (Sched.Problem.of_context ~fault ctx)
  in
  let warm () =
    Sched.Problem.prefetch_all (Sched.Problem.with_fault_patch base fault)
  in
  let (cold_t, warm_t), attempts =
    best_of ~merge:min2
      ~pass:(fun (c, w) -> w <= 0.5 *. c)
      (pair (fun () -> time cold) (fun () -> time warm))
  in
  Printf.printf
    "%-34s %10.3f ms\n%-34s %10.3f ms\n%-34s %9.1fx  (best of %d attempt(s))\n"
    "cold of_context + prefetch_all" (cold_t *. 1e3)
    "warm with_fault_patch + prefetch" (warm_t *. 1e3) "warm speedup"
    (cold_t /. warm_t) attempts;
  if warm_t > 0.5 *. cold_t then begin
    Printf.eprintf
      "FAIL: warm fault re-solve over 0.5x the cold session on LU 16x16 %s \
       (%.3f ms vs %.3f ms)\n"
      topology (warm_t *. 1e3) (cold_t *. 1e3);
    exit 1
  end;
  let warm_work = counters_of warm in
  (* window edit: private trace so the shared [ctx] stays pristine; the
     counted session repeats the timed one's edit with obs on *)
  let edit_trace = Workloads.Lu.trace ~n:16 kmesh in
  let edit_ctx = Sched.Context.create ~policy kmesh edit_trace in
  let session = Sched.Problem.of_context edit_ctx in
  let counted = Sched.Problem.of_context edit_ctx in
  Sched.Problem.prefetch_all session;
  Sched.Problem.prefetch_all counted;
  Reftrace.Window.add
    (Reftrace.Trace.window edit_trace 3)
    ~data:0 ~proc:5 ~count:2;
  Sched.Problem.invalidate session ~window:3;
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  Sched.Problem.prefetch_all session;
  let edit_warm = Unix.gettimeofday () -. t0 in
  let edit_work =
    counters_of (fun () ->
        Sched.Problem.invalidate counted ~window:3;
        Sched.Problem.prefetch_all counted)
  in
  let edit_cold =
    time (fun () ->
        Sched.Problem.prefetch_all (Sched.Problem.of_context edit_ctx))
  in
  if plan_of session <> plan_of (Sched.Problem.of_context edit_ctx) then begin
    Printf.eprintf
      "FAIL: invalidated session plan differs from cold rebuild over the \
       edited context (%s)\n"
      topology;
    exit 1
  end;
  Printf.printf "%-34s %10.3f ms\n%-34s %10.3f ms\n"
    "edit: cold rebuild + prefetch" (edit_cold *. 1e3)
    "edit: invalidate + re-prefetch" (edit_warm *. 1e3);
  let prefixed prefix = List.map (fun (name, v) -> (prefix ^ name, v)) in
  let work =
    work "incremental_bench" ~where:(" on " ^ topology)
      (prefixed "warm." warm_work @ prefixed "edit." edit_work)
  in
  Obs.Json.Obj
    [
      ("workload", Obs.Json.String "lu-16x16");
      ("mesh", Obs.Json.String "16x16");
      ("topology", Obs.Json.String topology);
      ("cold_ms", Obs.Json.Float (cold_t *. 1e3));
      ("warm_ms", Obs.Json.Float (warm_t *. 1e3));
      ("warm_speedup", Obs.Json.Float (cold_t /. warm_t));
      ("edit_cold_ms", Obs.Json.Float (edit_cold *. 1e3));
      ("edit_warm_ms", Obs.Json.Float (edit_warm *. 1e3));
      work;
    ]

let incremental_bench () = on_topologies incremental_bench_on

(* ------------------------------------------------------------------ *)
(* Timed backend (cycle-honest simulator)                              *)
(* ------------------------------------------------------------------ *)

(* Two facts about the parameterized timed backend, both gated:

   - degenerate work: the live engine's report under the degenerate
     model (unit bandwidth, store-and-forward, unbounded queues, zero
     compute) for the LU 16x16 gomcds schedule on 16x16 is pinned
     exactly ([pins]); its wall is an info row. That the report equals
     the pre-model engine's field for field is a test
     (test_timed_model's differential case).
   - ranking honesty: across the benchmark zoo at n=16 on the paper's
     4x4 mesh, at least one workload must rank some scheduler
     differently by simulated cycles than by the hop-volume scalar.
     That disagreement is the reason the timed backend exists; if every
     ranking agrees, the cycle model has collapsed into hop-volume and
     the gate fails. *)
let timed_bench () =
  section "Timed backend (cycle-honest vs hop-volume)";
  let kmesh = Pim.Mesh.square 16 in
  let trace = Workloads.Lu.trace ~n:16 kmesh in
  let policy =
    Sched.Problem.headroom_policy ~headroom:2
      ~processors:(Pim.Mesh.size kmesh) trace
  in
  let problem = Sched.Problem.create ~policy kmesh trace in
  let schedule = Sched.Scheduler.solve problem Sched.Scheduler.Gomcds in
  let rounds = Sched.Schedule.to_rounds schedule trace in
  let live =
    best_wall (fun () -> ignore (Pim.Timed_simulator.run kmesh rounds))
  in
  Printf.printf "%-34s %10.3f ms\n" "degenerate replay, live engine"
    (live *. 1e3);
  let report = ref None in
  let counters =
    counters_of (fun () ->
        report := Some (Pim.Timed_simulator.run kmesh rounds))
  in
  let report = Option.get !report in
  let work =
    work "timed_bench"
      (("total_cycles", report.Pim.Timed_simulator.total_cycles)
      :: ("total_volume_hops", report.Pim.Timed_simulator.total_volume_hops)
      :: counters)
  in
  (* ranking sweep: hop-volume rank vs cycle rank, degenerate model *)
  let ranks values =
    List.map
      (fun v -> 1 + List.length (List.filter (fun w -> w < v) values))
      values
  in
  let zoo =
    List.map
      (fun b ->
        ( "b" ^ Workloads.Benchmarks.label b,
          Workloads.Benchmarks.trace b ~n:16 mesh ))
      Workloads.Benchmarks.all
    @ [ ("code-16x16", Workloads.Code_kernel.trace ~n:16 mesh) ]
  in
  let sweep =
    List.map
      (fun (wl, trace) ->
        let policy =
          Sched.Problem.headroom_policy ~headroom:2
            ~processors:(Pim.Mesh.size mesh) trace
        in
        let problem = Sched.Problem.create ~policy mesh trace in
        let measured =
          List.map
            (fun algo ->
              let s = Sched.Scheduler.solve problem algo in
              ( Sched.Schedule.total_cost s trace,
                (Pim.Timed_simulator.run mesh (Sched.Schedule.to_rounds s trace))
                  .Pim.Timed_simulator.total_cycles ))
            Sched.Scheduler.all
        in
        let hop_ranks = ranks (List.map fst measured) in
        let cycle_ranks = ranks (List.map snd measured) in
        let disagreements =
          List.fold_left2
            (fun acc h c -> if h <> c then acc + 1 else acc)
            0 hop_ranks cycle_ranks
        in
        Printf.printf
          "%-12s %2d/%d schedulers ranked differently by cycles\n" wl
          disagreements (List.length measured);
        (wl, disagreements, List.length measured))
      zoo
  in
  let total = List.fold_left (fun acc (_, d, _) -> acc + d) 0 sweep in
  if total = 0 then begin
    Printf.eprintf
      "FAIL: no scheduler ranked differently by cycles than by hop-volume \
       on any zoo workload -- the timed model is not adding information\n";
    exit 1
  end;
  Obs.Json.Obj
    [
      ( "degenerate",
        Obs.Json.Obj
          [
            ("workload", Obs.Json.String "lu-16x16");
            ("mesh", Obs.Json.String "16x16");
            ("live_ms", Obs.Json.Float (live *. 1e3));
          ] );
      ( "ranking",
        Obs.Json.List
          (List.map
             (fun (wl, d, n) ->
               Obs.Json.Obj
                 [
                   ("workload", Obs.Json.String wl);
                   ("disagreements", Obs.Json.Int d);
                   ("schedulers", Obs.Json.Int n);
                 ])
             sweep) );
      work;
    ]

(* ------------------------------------------------------------------ *)
(* Machine-readable snapshot (BENCH_<rev>.json)                        *)
(* ------------------------------------------------------------------ *)

(* One JSON snapshot per bench run: each gated section's field, walls
   and the exact [work] it was pinned to. This is the regression trail
   future perf PRs diff against. *)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "local"
  with _ -> "local"

(* The gated sections, run in both modes in this order; each prints its
   rows, exits nonzero when a gate fails, and returns its snapshot
   field. *)
let gated_sections =
  [
    ("engine_scaling", engine_scaling);
    ("kernel_bench", kernel_bench);
    ("serve_bench", serve_bench);
    ("multi_bench", multi_bench);
    ("incremental_bench", incremental_bench);
    ("timed_bench", timed_bench);
  ]

let json_snapshot sections =
  section "Machine-readable snapshot";
  let rev = git_rev () in
  let path = Printf.sprintf "BENCH_%s.json" rev in
  Obs.Json.write_file path
    (Obs.Json.Obj
       ([
          ("schema", Obs.Json.String "pim-sched-bench/5");
          ("rev", Obs.Json.String rev);
          ("quick", Obs.Json.Bool quick);
        ]
       @ sections));
  Printf.printf "wrote %s\n" path

let () =
  print_endline
    "Reproduction benches: Tian, Sha, Chantrapornchai, Kogge -- \"Optimizing\n\
     Data Scheduling on Processor-In-Memory Arrays\" (IPPS 1998)";
  figure1 ();
  if not quick then
    List.iter
      (fun paper_section -> paper_section ())
      [
        tables;
        characterization;
        ablation_window_size;
        ablation_headroom;
        ablation_mesh_size;
        ablation_topology;
        ablation_refinement;
        ablation_adaptation;
        ablation_replication;
        ablation_annealing;
        ablation_online;
        ablation_partition;
        congestion;
      ];
  json_snapshot (List.map (fun (key, run) -> (key, run ())) gated_sections);
  print_endline
    (if quick then "\nQuick benches complete." else "\nAll benches complete.")
