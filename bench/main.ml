(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables 1 and 2, the Section 3.3 / Figure 1 worked example),
   characterizes the workloads, runs the ablations documented in DESIGN.md
   (A1 window granularity, A2 memory headroom, A3 mesh size, A5 topology,
   A4 refinement + lower-bound gap, A6 imposed-placement adaptation,
   A7 read replication, A8 structure vs search, A9 online hysteresis,
   A10 iteration partition, plus the congestion/makespan/energy study),
   and times the schedulers with Bechamel. *)

let mesh = Pim.Mesh.square 4
let sizes = [ 8; 16; 32 ]

(* Quick mode (--quick or BENCH_QUICK=1): the worked example plus the
   machine-readable snapshot only — the CI smoke path. *)
let quick =
  Array.exists (fun a -> a = "--quick") Sys.argv
  || Sys.getenv_opt "BENCH_QUICK" <> None

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Fastest of the mode's reps of [f], each after a full major GC so one
   rep's garbage is not collected on the next rep's clock. *)
let best_wall f =
  let best = ref infinity in
  for _ = 1 to if quick then 3 else 5 do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    f ();
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

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

let total ?capacity algorithm mesh trace =
  Sched.Schedule.total_cost
    (Sched.Scheduler.run ?capacity algorithm mesh trace)
    trace

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
          (* one context per instance: baseline and every column share its
             cost-vector cache *)
          let problem =
            Sched.Problem.create
              ~policy:(Sched.Problem.Bounded capacity) mesh trace
          in
          let cost a =
            Sched.Schedule.total_cost (Sched.Scheduler.solve problem a) trace
          in
          let baseline = cost Sched.Scheduler.Row_wise in
          {
            Sched.Report.benchmark = Workloads.Benchmarks.label bench;
            size = Printf.sprintf "%dx%d" n n;
            baseline;
            entries = List.map (fun a -> Sched.Report.entry ~baseline (cost a)) algos;
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
    let capacity =
      Pim.Memory.capacity_for
        ~data_count:(Reftrace.Data_space.size (Reftrace.Trace.space trace))
        ~mesh ~headroom:2
    in
    let sf = total ~capacity Sched.Scheduler.Row_wise mesh trace in
    let scds = total ~capacity Sched.Scheduler.Scds mesh trace in
    let g = total ~capacity Sched.Scheduler.Gomcds mesh trace in
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
  let events = Reftrace.Window_builder.events_of_trace t in
  let space = Reftrace.Trace.space t in
  let capacity =
    Workloads.Benchmarks.capacity Workloads.Benchmarks.B1 ~n:16 mesh
  in
  Printf.printf "%8s %8s %10s %10s %10s\n" "steps/w" "windows" "SCDS" "LOMCDS"
    "GOMCDS";
  List.iter
    (fun k ->
      let coarse =
        Reftrace.Window_builder.fixed ~steps_per_window:k space events
      in
      Printf.printf "%8d %8d %10d %10d %10d\n" k
        (Reftrace.Trace.n_windows coarse)
        (total ~capacity Sched.Scheduler.Scds mesh coarse)
        (total ~capacity Sched.Scheduler.Lomcds mesh coarse)
        (total ~capacity Sched.Scheduler.Gomcds mesh coarse))
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
  Printf.printf "%9s %9s %10s %10s %10s\n" "headroom" "capacity" "SCDS"
    "LOMCDS" "GOMCDS";
  List.iter
    (fun headroom ->
      let capacity = Pim.Memory.capacity_for ~data_count ~mesh ~headroom in
      Printf.printf "%9d %9d %10d %10d %10d\n" headroom capacity
        (total ~capacity Sched.Scheduler.Scds mesh t)
        (total ~capacity Sched.Scheduler.Lomcds mesh t)
        (total ~capacity Sched.Scheduler.Gomcds mesh t))
    [ 1; 2; 3; 4 ];
  Printf.printf "%9s %9s %10d %10d %10d\n" "inf" "-"
    (total Sched.Scheduler.Scds mesh t)
    (total Sched.Scheduler.Lomcds mesh t)
    (total Sched.Scheduler.Gomcds mesh t);
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
      let capacity =
        Pim.Memory.capacity_for ~data_count:256 ~mesh:m ~headroom:2
      in
      let sf = total ~capacity Sched.Scheduler.Row_wise m t in
      let g = total ~capacity Sched.Scheduler.Gomcds m t in
      Printf.printf "%6s %10d %10d %10d %10d %7.1f%%\n"
        (Printf.sprintf "%dx%d" side side)
        sf
        (total ~capacity Sched.Scheduler.Scds m t)
        (total ~capacity Sched.Scheduler.Lomcds m t)
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
          let capacity = Workloads.Benchmarks.capacity bench ~n:16 m in
          Printf.printf "%-4s %-6s %10d %10d %10d %10d\n"
            (Workloads.Benchmarks.label bench)
            label
            (total ~capacity Sched.Scheduler.Row_wise m t)
            (total ~capacity Sched.Scheduler.Scds m t)
            (total ~capacity Sched.Scheduler.Lomcds m t)
            (total ~capacity Sched.Scheduler.Gomcds m t))
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
      let capacity = Workloads.Benchmarks.capacity bench ~n mesh in
      let bound = Sched.Bounds.lower_bound_in (Sched.Problem.create mesh trace) in
      let cost a = total ~capacity a mesh trace in
      let g = cost Sched.Scheduler.Gomcds in
      let lg = cost Sched.Scheduler.Lomcds_grouped in
      let br = cost Sched.Scheduler.Best_refined in
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
      let r = Sched.Adapt.recovery ~initial mesh trace in
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
      let capacity = Workloads.Benchmarks.capacity bench ~n:16 mesh in
      let cost k =
        let r = Sched.Replicated.run ~capacity ~max_copies:k mesh trace in
        (Sched.Replicated.cost r mesh trace).Sched.Replicated.total
      in
      Printf.printf "%-4s %12d | %10d %10d %10d %10d\n"
        (Workloads.Benchmarks.label bench)
        (Sched.Bounds.lower_bound_in (Sched.Problem.create mesh trace))
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
      let capacity = Workloads.Benchmarks.capacity bench ~n:16 mesh in
      let sa iterations =
        let _, stats =
          Sched.Annealing.run ~capacity ~iterations mesh trace
        in
        stats.Sched.Annealing.final_cost
      in
      Printf.printf "%-4s %10d | %12d %12d %12d | %10d\n"
        (Workloads.Benchmarks.label bench)
        (total ~capacity Sched.Scheduler.Row_wise mesh trace)
        (sa 10_000) (sa 100_000) (sa 400_000)
        (total ~capacity Sched.Scheduler.Gomcds mesh trace))
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
  Printf.printf "%-12s %10s %10s %10s %10s
" "partition" "S.F." "SCDS"
    "LOMCDS" "GOMCDS";
  List.iter
    (fun partition ->
      let t = Workloads.Lu.trace ~partition ~n:16 mesh in
      let capacity =
        Workloads.Benchmarks.capacity Workloads.Benchmarks.B1 ~n:16 mesh
      in
      Printf.printf "%-12s %10d %10d %10d %10d
"
        (Workloads.Iteration_space.name partition)
        (total ~capacity Sched.Scheduler.Row_wise mesh t)
        (total ~capacity Sched.Scheduler.Scds mesh t)
        (total ~capacity Sched.Scheduler.Lomcds mesh t)
        (total ~capacity Sched.Scheduler.Gomcds mesh t))
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
      let online theta =
        Sched.Schedule.total_cost
          (Sched.Online.run ~theta ~initial mesh trace)
          trace
      in
      let r = Sched.Adapt.recovery ~initial mesh trace in
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
  let capacity = Pim.Memory.capacity_for ~data_count:256 ~mesh ~headroom:2 in
  Printf.printf "%-16s %10s %10s %12s %10s %10s %10s\n" "algorithm" "total"
    "max link" "imbalance" "lat.bound" "makespan" "energy";
  List.iter
    (fun algo ->
      let s = Sched.Scheduler.run ~capacity algo mesh t in
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
  let s = Sched.Scheduler.run ~capacity Sched.Scheduler.Gomcds mesh t in
  let span prefetch =
    (Pim.Timed_simulator.run mesh (Sched.Schedule.to_rounds ~prefetch s t))
      .Pim.Timed_simulator.total_cycles
  in
  Printf.printf
    "prefetching migrations one window early: makespan %d -> %d (no\n\
     compute phase to hide the movement behind)\n"
    (span false) (span true)

(* ------------------------------------------------------------------ *)
(* Scheduler timing (Bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let timing () =
  section "Scheduler timing (Bechamel, LU 16x16 on 4x4)";
  let open Bechamel in
  let t = Workloads.Lu.trace ~n:16 mesh in
  let capacity =
    Workloads.Benchmarks.capacity Workloads.Benchmarks.B1 ~n:16 mesh
  in
  let stage algo =
    Test.make
      ~name:(Sched.Scheduler.name algo)
      (Staged.stage (fun () ->
           ignore (Sched.Scheduler.run ~capacity algo mesh t)))
  in
  let tests =
    Test.make_grouped ~name:"schedulers"
      (List.map stage
         Sched.Scheduler.
           [ Row_wise; Scds; Lomcds; Gomcds; Lomcds_grouped; Gomcds_grouped ])
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let ns =
          match Analyze.OLS.estimates result with
          | Some [ est ] -> est
          | Some _ | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (_, a) (_, b) -> Float.compare a b)
  in
  Printf.printf "%-32s %14s\n" "scheduler" "time/run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else Printf.sprintf "%.1f us" (ns /. 1e3)
      in
      Printf.printf "%-32s %14s\n" name pretty)
    rows

(* ------------------------------------------------------------------ *)
(* Engine scaling                                                      *)
(* ------------------------------------------------------------------ *)

(* Regenerates the LU 16x16 rows of Tables 1 and 2 (row-wise baseline,
   SCDS, LOMCDS, GOMCDS, both grouped variants, plus the lower bound)
   two ways:

   - legacy: each algorithm through the deprecated [Scheduler.run] shim,
     i.e. a throwaway context per run, recomputing every (datum, window)
     cost vector and per-datum DP from scratch each time;
   - engine: one [Problem.t] shared by all runs at jobs in {1, 2, 4}.

   The shared cache wins even on one core (each cost vector is computed
   once instead of once per algorithm); extra domains then scale the
   cache fill and the per-datum DPs on multi-core hosts. *)
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
  let legacy () =
    List.iter (fun a -> ignore (Sched.Scheduler.run ~capacity a mesh t)) algos;
    ignore (Sched.Bounds.lower_bound_in (Sched.Problem.create mesh t))
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
  let baseline = time legacy in
  Printf.printf "%-28s %10.1f ms  %8s\n" "legacy (context per run)"
    (baseline *. 1e3) "1.00x";
  (* jobs=4 vs jobs=1 is the CI gate (>= 0.95x, [best_of] retries):
     the engine claims chunks of ~n/(k*8) indices, so on a host whose
     effective pool is one domain the two settings run identical work and
     differ only by timer noise, while a real pool must not regress *)
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
        (s *. 1e3) (baseline /. s))
    [ (1, t1); (2, t2); (4, t4) ];
  Printf.printf
    "jobs=4/jobs=1 %.2fx (best of %d attempt(s))\n\
     (speedup vs. the legacy path: the shared context computes each\n\
    \ (datum, window) cost vector once for all algorithms and the bound)\n"
    (t1 /. t4) attempts;
  if t1 < t4 *. 0.95 then begin
    Printf.eprintf
      "FAIL: engine at jobs=4 fell behind jobs=1 on LU 16x16 (%.1f ms vs \
       %.1f ms)\n"
      (t4 *. 1e3) (t1 *. 1e3);
    exit 1
  end;
  Obs.Json.Obj
    [
      ("workload", Obs.Json.String "lu-16x16");
      ("mesh", Obs.Json.String "4x4");
      ("legacy_ms", Obs.Json.Float (baseline *. 1e3));
      ("jobs1_ms", Obs.Json.Float (t1 *. 1e3));
      ("jobs2_ms", Obs.Json.Float (t2 *. 1e3));
      ("jobs4_ms", Obs.Json.Float (t4 *. 1e3));
      ("speedup_vs_legacy", Obs.Json.Float (baseline /. t1));
      ("jobs4_vs_jobs1", Obs.Json.Float (t1 /. t4));
      ("attempts", Obs.Json.Int attempts);
    ]

(* ------------------------------------------------------------------ *)
(* Kernel dimension: separable vs naive cost-vector construction       *)
(* ------------------------------------------------------------------ *)

(* Two comparisons of the cost-arena fast paths on the LU 16x16 workload
   mapped onto a 16x16 array -- the size where the naive O(P x refs) walk
   actually hurts (the separable kernel is O(refs + rows + cols + P) per
   vector, so its edge grows with the reference density and with P). Run
   once on the plain mesh and once on the torus, so the circular-prefix-sum
   path has its own perf trail in BENCH_<rev>.json:

   - cost-vector construction: every referenced (window, datum) vector
     built directly through [Oracle.Cost_naive.cost_vector] (the pre-refactor
     profile-fold, one coordinate decode per (center, reference) term)
     vs [Cost.cost_vector] (marginals + per-axis prefix sums). Gated:
     separable must not be slower.
   - [Problem.prefetch_all] vs the retired PR 3 fill: one heap array per
     (window, datum) pair -- zero-reference pairs included -- assembled
     through [Cost.cost_vector] and parked in an option matrix, plus the
     lazy O(P^2) rank-to-rank distance table the old solve pipeline
     forced before any layered DP could run. The arena skips
     zero-reference fills (they share one zero row), allocates one flat
     uninitialized buffer per datum, and the DP reads the per-axis
     tables, so no P^2 table exists at all. Gated: >= 3x on the mesh.
     On the torus the gate is >= 2x: the arena only fills referenced
     rows (1495 of 3840 pairs on this workload), so the fill-work ratio
     alone tops out near 2.6x and the rest of the margin comes from the
     retired table and allocation churn -- the torus typically clears
     3x too, but its pricier circular prefix sums leave less headroom,
     so its CI gate keeps a noise allowance.

   Runs in quick mode too: these are the CI perf gates -- the process
   exits nonzero on either regression, on both topologies. *)
let kernel_bench_on ~topology kmesh =
  section
    (Printf.sprintf
       "Kernel: separable vs naive cost-vector construction (LU 16x16 on \
        16x16 %s)"
       topology);
  let trace = Workloads.Lu.trace ~n:16 kmesh in
  let windows = Reftrace.Trace.windows trace in
  let n_windows = Reftrace.Trace.n_windows trace in
  let n_data = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
  let reps = if quick then 3 else 5 in
  let time = best_wall in
  let n_vectors = ref 0 in
  let build vector_of () =
    n_vectors := 0;
    List.iter
      (fun w ->
        List.iter
          (fun data ->
            incr n_vectors;
            ignore (vector_of w ~data : int array))
          (Reftrace.Window.referenced_data w))
      windows
  in
  let naive =
    time (build (fun w ~data -> Oracle.Cost_naive.cost_vector kmesh w ~data))
  in
  let separable =
    time (build (fun w ~data -> Sched.Cost.cost_vector kmesh w ~data))
  in
  let speedup = naive /. separable in
  let capacity =
    Pim.Memory.capacity_for ~data_count:n_data ~mesh:kmesh ~headroom:2
  in
  let prefetch ?fault () =
    let best = ref infinity in
    for _ = 1 to reps do
      (* context creation stays outside the timer, and so does collecting
         the previous rep's garbage -- GC slices inside the timed region
         otherwise charge one rep's allocation to the next rep's clock *)
      let problem =
        Sched.Problem.create ~policy:(Sched.Problem.Bounded capacity)
          ~jobs:1 ?fault kmesh trace
      in
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      Sched.Problem.prefetch_all problem;
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let pf_separable = prefetch () in
  (* Fault.none zero-overhead: a context carrying the explicit healthy
     fault must take the exact same fill path. The timing row is
     informational (wall clocks are noise-prone in CI); the gate is
     byte-identical arena rows. *)
  let pf_fault_none = prefetch ~fault:Pim.Fault.none () in
  let healthy =
    Sched.Problem.create ~policy:(Sched.Problem.Bounded capacity) ~jobs:1
      kmesh trace
  and fault_none =
    Sched.Problem.create ~policy:(Sched.Problem.Bounded capacity) ~jobs:1
      ~fault:Pim.Fault.none kmesh trace
  in
  List.iteri
    (fun w window ->
      List.iter
        (fun data ->
          if
            Sched.Problem.cost_vector healthy ~window:w ~data
            <> Sched.Problem.cost_vector fault_none ~window:w ~data
          then begin
            Printf.eprintf
              "FAIL: Fault.none arena row differs from healthy (window %d, \
               datum %d, %s)\n"
              w data topology;
            exit 1
          end)
        (Reftrace.Window.referenced_data window))
    windows;
  (* the PR 3 context fill this repo shipped before the arena: one heap
     vector per (window, datum) pair, zero-reference pairs included,
     plus the O(P^2) rank-to-rank distance table the layered DP consumed
     (built lazily by the old context, but unavoidable before any solve,
     so it belongs to the fill bill). Same GC hygiene as above. *)
  let windows_arr = Array.of_list windows in
  let size = Pim.Mesh.size kmesh in
  let pf_legacy =
    best_wall (fun () ->
        let store = Array.make_matrix n_data n_windows None in
        for data = 0 to n_data - 1 do
          for w = 0 to n_windows - 1 do
            store.(data).(w) <-
              Some (Sched.Cost.cost_vector kmesh windows_arr.(w) ~data)
          done
        done;
        let dist =
          Array.init size (fun a ->
              Array.init size (fun b -> Pim.Mesh.distance kmesh a b))
        in
        ignore (store : int array option array array);
        ignore (dist : int array array))
  in
  let arena_speedup = pf_legacy /. pf_separable in
  Printf.printf "%d cost vectors (%d windows, %d data, %d processors)\n"
    !n_vectors n_windows n_data (Pim.Mesh.size kmesh);
  Printf.printf "%-34s %10.3f ms\n%-34s %10.3f ms\n%-34s %9.1fx\n"
    "construction, naive" (naive *. 1e3) "construction, separable"
    (separable *. 1e3) "construction speedup" speedup;
  Printf.printf "%-34s %10.3f ms\n%-34s %10.3f ms\n%-34s %9.1fx\n"
    "prefetch_all, separable" (pf_separable *. 1e3)
    "per-vector fill (pre-arena)" (pf_legacy *. 1e3)
    "arena speedup vs per-vector" arena_speedup;
  Printf.printf "%-34s %10.3f ms  (rows gated byte-identical)\n"
    "prefetch_all, Fault.none" (pf_fault_none *. 1e3);
  if separable > naive then begin
    Printf.eprintf
      "FAIL: separable kernel slower than naive on LU 16x16 %s (%.3f ms vs \
       %.3f ms)\n"
      topology (separable *. 1e3) (naive *. 1e3);
    exit 1
  end;
  (* mesh: 3x over the full PR 3 bill (vectors + table). torus: the
     referenced-rows-only fill caps the work ratio near 2.6x (see the
     header comment), so the gate is 2x there. *)
  let gate = if topology = "torus" then 2. else 3. in
  if arena_speedup < gate then begin
    Printf.eprintf
      "FAIL: arena prefetch_all under %.0fx the PR 3 per-vector fill on LU \
       16x16 %s (%.3f ms vs %.3f ms, %.1fx)\n"
      gate topology (pf_separable *. 1e3) (pf_legacy *. 1e3) arena_speedup;
    exit 1
  end;
  Obs.Json.Obj
    [
      ("workload", Obs.Json.String "lu-16x16");
      ("mesh", Obs.Json.String "16x16");
      ("topology", Obs.Json.String topology);
      ("metric", Obs.Json.String "cost_vector_build_wall");
      ("vectors", Obs.Json.Int !n_vectors);
      ("naive_ms", Obs.Json.Float (naive *. 1e3));
      ("separable_ms", Obs.Json.Float (separable *. 1e3));
      ("speedup", Obs.Json.Float speedup);
      ("prefetch_separable_ms", Obs.Json.Float (pf_separable *. 1e3));
      ("prefetch_legacy_ms", Obs.Json.Float (pf_legacy *. 1e3));
      ("prefetch_fault_none_ms", Obs.Json.Float (pf_fault_none *. 1e3));
      ("arena_speedup_vs_per_vector", Obs.Json.Float arena_speedup);
    ]

let kernel_bench () =
  (* bind in order: list elements evaluate right-to-left in OCaml *)
  let mesh_row = kernel_bench_on ~topology:"mesh" (Pim.Mesh.square 16) in
  let torus_row =
    kernel_bench_on ~topology:"torus" (Pim.Mesh.square ~wrap:true 16)
  in
  Obs.Json.List [ mesh_row; torus_row ]

(* ------------------------------------------------------------------ *)
(* Serve throughput (pimsched serve daemon path)                       *)
(* ------------------------------------------------------------------ *)

(* One wave of requests cycling the five schedulers on LU 16x16 through
   [Serve.Server.process_batch]. Throughput is requests/sec over the
   wave's wall time; p50/p99 come from the per-request solve latencies
   the server reports. Measured
   at jobs=1 and jobs=4 -- the two settings run identical deterministic
   work per request, so per-request latency should be flat and the
   jobs=4 wave must not fall behind (gate: >= 0.95x, best-of attempts,
   because on a host the engine caps to one domain they differ only by
   timer noise). *)
let serve_bench () =
  section "Serve throughput (pimsched serve, LU 16x16 on 16x16)";
  let serve_mesh = "16x16" in
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
  let measure jobs =
    let default = Serve.Server.default_config () in
    let server =
      Serve.Server.create
        ~config:
          { default with Serve.Server.jobs; batch = n_requests }
        ()
    in
    (* warm the shared context (axis tables, merged window) outside the
       timer; a daemon pays that once per instance, not per request *)
    ignore (Serve.Server.process_batch server [ List.hd lines ]);
    Gc.full_major ();
    let t0 = Obs.Clock.now_s () in
    let results = Serve.Server.process_batch server lines in
    let wall = Obs.Clock.now_s () -. t0 in
    let durs =
      Array.of_list (List.sort Float.compare (List.map snd results))
    in
    let pct p =
      durs.(min (Array.length durs - 1)
              (int_of_float (p *. float_of_int (Array.length durs))))
    in
    (float_of_int n_requests /. wall, pct 0.50, pct 0.99)
  in
  let thr (t, _, _) = t in
  let faster r m = if thr m > thr r then m else r in
  let (best1, best4), attempts =
    best_of
      ~merge:(fun (b1, b4) (m1, m4) -> (faster b1 m1, faster b4 m4))
      ~pass:(fun (b1, b4) -> thr b4 >= thr b1)
      (pair (fun () -> measure 1) (fun () -> measure 4))
  in
  let row jobs (t, p50, p99) =
    Printf.printf
      "jobs=%d  %8.1f req/s   p50 %7.3f ms   p99 %7.3f ms\n" jobs t
      (p50 *. 1e3) (p99 *. 1e3);
    Obs.Json.Obj
      [
        ("jobs", Obs.Json.Int jobs);
        ("mesh", Obs.Json.String serve_mesh);
        ("requests", Obs.Json.Int n_requests);
        ("requests_per_sec", Obs.Json.Float t);
        ("p50_ms", Obs.Json.Float (p50 *. 1e3));
        ("p99_ms", Obs.Json.Float (p99 *. 1e3));
      ]
  in
  let r1 = row 1 best1 in
  let r4 = row 4 best4 in
  let rows = [ r1; r4 ] in
  Printf.printf "best of %d attempt(s); jobs=4/jobs=1 throughput %.2fx\n"
    attempts
    (thr best4 /. thr best1);
  if thr best4 < 0.95 *. thr best1 then begin
    Printf.printf
      "FAIL: serve wave at jobs=4 fell behind jobs=1 (%.1f vs %.1f req/s)\n"
      (thr best4) (thr best1);
    exit 1
  end;
  (* the chaos hooks are compiled into the serve path unconditionally;
     armed-but-idle (registry enabled, every site Off) must stay within
     1.10x the disabled p50 -- failpoints may not tax production
     latency. Best-of retries absorb timer noise on millisecond p50s. *)
  let p50_of (_, p, _) = p in
  let fp_ratio, _ =
    best_of
      ~merge:(fun _ latest -> latest)
      ~pass:(fun ratio -> ratio <= 1.10)
      (fun () ->
        let base = measure 1 in
        Obs.Failpoint.configure "";
        let armed =
          Fun.protect ~finally:Obs.Failpoint.clear (fun () -> measure 1)
        in
        p50_of armed /. p50_of base)
  in
  Printf.printf "failpoints armed-but-idle p50 ratio %.2fx (gate 1.10x)\n"
    fp_ratio;
  if fp_ratio > 1.10 then begin
    Printf.printf
      "FAIL: armed-but-idle failpoints tax serve p50 %.2fx (> 1.10x)\n"
      fp_ratio;
    exit 1
  end;
  Obs.Json.Obj
    [
      ("workload", Obs.Json.String "lu-16x16");
      ("mesh", Obs.Json.String serve_mesh);
      ("algorithms", Obs.Json.List (List.map (fun a -> Obs.Json.String a) algos));
      ("failpoint_idle_p50_ratio", Obs.Json.Float fp_ratio);
      ("runs", Obs.Json.List rows);
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
     mesh, against the group-metric lower bound. Not gated; the numbers
     are the regression trail for the cross-array machinery. *)
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
    ]

(* ------------------------------------------------------------------ *)
(* Incremental re-solve (warm sessions, dirty rows, batched fills)     *)
(* ------------------------------------------------------------------ *)

(* Three facts about the incremental core on LU 16x16, the first two CI
   gates on both topologies (the process exits nonzero on regression):

   - warm re-solve: patching a running session to a node fault
     ([Problem.with_fault_patch] + [prefetch_all]) must prepare in
     <= 0.5x the wall of a cold [of_context] + [prefetch_all] under the
     same fault — a pure node fault reprices no slab row, so the patch
     carries every filled byte over. The patched session's gomcds plan
     is checked byte-identical to the cold session's first (a faster
     wrong answer proves nothing).
   - batched fills: assembling each window's slab rows through
     [Cost.fill_window_batch] (axis-cost and prefix-sum scratch shared
     across the window) must not lose to the per-row
     [Cost.fill_slab_of_marginals] loop it replaced.
   - window edit (info rows): [Problem.invalidate] after an in-place
     [Window.add] edit, then re-prefetch. Not wall-gated — the refill
     set depends on the edit — but the edited session's plan is checked
     byte-identical to a cold session over the same edited context. *)
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
  (* window edit: private trace so the shared [ctx] stays pristine *)
  let edit_trace = Workloads.Lu.trace ~n:16 kmesh in
  let edit_ctx = Sched.Context.create ~policy kmesh edit_trace in
  let session = Sched.Problem.of_context edit_ctx in
  Sched.Problem.prefetch_all session;
  Reftrace.Window.add
    (Reftrace.Trace.window edit_trace 3)
    ~data:0 ~proc:5 ~count:2;
  Sched.Problem.invalidate session ~window:3;
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  Sched.Problem.prefetch_all session;
  let edit_warm = Unix.gettimeofday () -. t0 in
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
  (* batch vs per-row fill over the same marginals and slab *)
  let windows = Reftrace.Trace.windows trace in
  let cols = Pim.Mesh.cols kmesh
  and rows = Pim.Mesh.rows kmesh
  and wrap = Pim.Mesh.wraps kmesh
  and size = Pim.Mesh.size kmesh in
  let batches =
    List.map
      (fun w ->
        List.map
          (fun data -> Reftrace.Window.marginals w ~data ~cols ~rows)
          (Reftrace.Window.referenced_data w))
      windows
  in
  let n_rows = List.fold_left (fun a b -> a + List.length b) 0 batches in
  let slab =
    Bigarray.Array1.create Bigarray.Int Bigarray.C_layout (n_rows * size)
  in
  let per_row () =
    let off = ref 0 in
    List.iter
      (List.iter (fun m ->
           Sched.Cost.fill_slab_of_marginals ~wrap ~cols ~rows m ~dst:slab
             ~off:!off;
           off := !off + size))
      batches
  in
  let batched () =
    let off = ref 0 in
    List.iter
      (fun ms ->
        let items =
          List.map
            (fun m ->
              let o = !off in
              off := o + size;
              (m, (slab, o)))
            ms
        in
        Sched.Cost.fill_window_batch ~wrap ~cols ~rows items)
      batches
  in
  let (row_t, batch_t), fill_attempts =
    best_of ~merge:min2
      ~pass:(fun (r, b) -> b <= r)
      (pair (fun () -> time per_row) (fun () -> time batched))
  in
  Printf.printf
    "%-34s %10.3f ms\n%-34s %10.3f ms\n%-34s %9.2fx  (%d rows, best of %d \
     attempt(s))\n"
    "fill, per-row" (row_t *. 1e3) "fill, window batch" (batch_t *. 1e3)
    "batch speedup" (row_t /. batch_t) n_rows fill_attempts;
  if batch_t > row_t then begin
    Printf.eprintf
      "FAIL: window-batched fill slower than per-row fill on LU 16x16 %s \
       (%.3f ms vs %.3f ms)\n"
      topology (batch_t *. 1e3) (row_t *. 1e3);
    exit 1
  end;
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
      ("fill_rows", Obs.Json.Int n_rows);
      ("fill_per_row_ms", Obs.Json.Float (row_t *. 1e3));
      ("fill_batch_ms", Obs.Json.Float (batch_t *. 1e3));
      ("fill_batch_speedup", Obs.Json.Float (row_t /. batch_t));
    ]

let incremental_bench () =
  (* bind in order: list elements evaluate right-to-left in OCaml *)
  let mesh_row = incremental_bench_on ~topology:"mesh" (Pim.Mesh.square 16) in
  let torus_row =
    incremental_bench_on ~topology:"torus" (Pim.Mesh.square ~wrap:true 16)
  in
  Obs.Json.List [ mesh_row; torus_row ]

(* ------------------------------------------------------------------ *)
(* Timed backend (cycle-honest simulator)                              *)
(* ------------------------------------------------------------------ *)

(* Two facts about the parameterized timed backend, both gated:

   - degenerate honesty: under the degenerate model (unit bandwidth,
     store-and-forward, unbounded queues, zero compute) the live engine
     must reproduce the pinned pre-model engine ([Oracle.Timed_reference])
     report field-for-field, and must not cost wall time for it — gate:
     live <= 1.05x Reference, [best_of] retries to damp timer noise. The identity check runs first,
     because a timing gate on a different answer proves nothing.
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
  let reference = Oracle.Timed_reference.run kmesh rounds in
  let live = Pim.Timed_simulator.run kmesh rounds in
  let identical =
    reference.Oracle.Timed_reference.total_cycles
      = live.Pim.Timed_simulator.total_cycles
    && reference.Oracle.Timed_reference.total_volume_hops
       = live.Pim.Timed_simulator.total_volume_hops
    && List.length reference.Oracle.Timed_reference.rounds
       = List.length live.Pim.Timed_simulator.rounds
    && List.for_all2
         (fun (a : Oracle.Timed_reference.round_report)
              (b : Pim.Timed_simulator.round_report) ->
           a.Oracle.Timed_reference.cycles
             = b.Pim.Timed_simulator.cycles
           && a.Oracle.Timed_reference.messages
              = b.Pim.Timed_simulator.messages
           && a.Oracle.Timed_reference.volume_hops
              = b.Pim.Timed_simulator.volume_hops
           && Float.equal a.Oracle.Timed_reference.utilization
                b.Pim.Timed_simulator.utilization)
         reference.Oracle.Timed_reference.rounds
         live.Pim.Timed_simulator.rounds
  in
  if not identical then begin
    Printf.eprintf
      "FAIL: degenerate timed engine diverges from the pinned Reference \
       report on LU 16x16 (%d vs %d cycles)\n"
      live.Pim.Timed_simulator.total_cycles
      reference.Oracle.Timed_reference.total_cycles;
    exit 1
  end;
  let wall = best_wall in
  let measure_ref () =
    wall (fun () -> ignore (Oracle.Timed_reference.run kmesh rounds))
  in
  let measure_live () =
    wall (fun () -> ignore (Pim.Timed_simulator.run kmesh rounds))
  in
  let (best_ref, best_live), attempts =
    best_of ~merge:min2
      ~pass:(fun (r, l) -> l <= 1.05 *. r)
      (pair measure_ref measure_live)
  in
  let overhead = best_live /. best_ref in
  Printf.printf
    "%-34s %10.3f ms\n%-34s %10.3f ms\n%-34s %9.2fx  (gate <= 1.05x, best \
     of %d attempt(s))\n"
    "degenerate replay, Reference" (best_ref *. 1e3)
    "degenerate replay, live engine" (best_live *. 1e3)
    "live/Reference wall" overhead attempts;
  Printf.printf "%-34s %10s\n" "degenerate report identity" "ok";
  if overhead > 1.05 then begin
    Printf.eprintf
      "FAIL: degenerate timed engine over 1.05x the Reference wall on LU \
       16x16 (%.3f ms vs %.3f ms, %.2fx)\n"
      (best_live *. 1e3) (best_ref *. 1e3) overhead;
    exit 1
  end;
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
            ("identical", Obs.Json.Bool identical);
            ("reference_ms", Obs.Json.Float (best_ref *. 1e3));
            ("live_ms", Obs.Json.Float (best_live *. 1e3));
            ("overhead", Obs.Json.Float overhead);
            ("attempts", Obs.Json.Int attempts);
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
    ]

(* ------------------------------------------------------------------ *)
(* Machine-readable snapshot (BENCH_<rev>.json)                        *)
(* ------------------------------------------------------------------ *)

(* One JSON snapshot per bench run, keyed workload x scheduler x jobs:
   wall times (obs off, best of [reps]), speedup vs jobs=1, total cost,
   and the scheduler counters from one instrumented run. This is the
   regression trail future perf PRs diff against. *)

let git_rev () =
  match Sys.getenv_opt "BENCH_REV" with
  | Some r -> r
  | None -> (
      try
        let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
        let line = try input_line ic with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "local"
      with _ -> "local")

let json_snapshot ~kernel ~serve ~multi ~engine ~incremental ~timed () =
  section "Machine-readable snapshot";
  let n = if quick then 8 else 16 in
  let reps = if quick then 1 else 3 in
  let workloads =
    [
      (Printf.sprintf "lu-%dx%d" n n, Workloads.Lu.trace ~n mesh);
      (Printf.sprintf "code-%dx%d" n n, Workloads.Code_kernel.trace ~n mesh);
    ]
  in
  let algos =
    Sched.Scheduler.[ Scds; Lomcds; Gomcds; Lomcds_grouped; Gomcds_grouped ]
  in
  let jobs_list = [ 1; 4 ] in
  let entries = ref [] in
  List.iter
    (fun (wl, trace) ->
      let policy =
        Sched.Problem.headroom_policy ~headroom:2
          ~processors:(Pim.Mesh.size mesh) trace
      in
      List.iter
        (fun algo ->
          let walls =
            List.map
              (fun jobs ->
                (* fresh context per run so cache fills are timed too *)
                let run () =
                  let problem =
                    Sched.Problem.create ~policy ~jobs mesh trace
                  in
                  Sched.Schedule.total_cost
                    (Sched.Scheduler.solve problem algo)
                    trace
                in
                let best = ref infinity in
                let cost = ref 0 in
                for _ = 1 to reps do
                  let t0 = Unix.gettimeofday () in
                  cost := run ();
                  best := Float.min !best (Unix.gettimeofday () -. t0)
                done;
                (jobs, !best, !cost))
              jobs_list
          in
          let _, wall1, _ =
            List.find (fun (jobs, _, _) -> jobs = 1) walls
          in
          List.iter
            (fun (jobs, wall, cost) ->
              let counters =
                Obs.with_enabled (fun () ->
                    Obs.reset ();
                    let problem =
                      Sched.Problem.create ~policy ~jobs mesh trace
                    in
                    ignore (Sched.Scheduler.solve problem algo);
                    let snap = Obs.Metrics.snapshot () in
                    Obs.reset ();
                    snap.Obs.Metrics.counters)
              in
              entries :=
                Obs.Json.Obj
                  [
                    ("workload", Obs.Json.String wl);
                    ( "scheduler",
                      Obs.Json.String (Sched.Scheduler.name algo) );
                    ("kernel", Obs.Json.String "separable");
                    ("jobs", Obs.Json.Int jobs);
                    ("wall_ms", Obs.Json.Float (wall *. 1e3));
                    ("speedup_vs_jobs1", Obs.Json.Float (wall1 /. wall));
                    ("total_cost", Obs.Json.Int cost);
                    ( "counters",
                      Obs.Json.Obj
                        (List.map
                           (fun (k, v) -> (k, Obs.Json.Int v))
                           counters) );
                  ]
                :: !entries)
            walls)
        algos)
    workloads;
  let rev = git_rev () in
  let path = Printf.sprintf "BENCH_%s.json" rev in
  Obs.Json.write_file path
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.String "pim-sched-bench/2");
         ("rev", Obs.Json.String rev);
         ("quick", Obs.Json.Bool quick);
         ("mesh", Obs.Json.String "4x4");
         ("kernel_bench", kernel);
         ("serve_bench", serve);
         ("multi_bench", multi);
         ("engine_scaling", engine);
         ("incremental_bench", incremental);
         ("timed_bench", timed);
         ("entries", Obs.Json.List (List.rev !entries));
       ]);
  Printf.printf "wrote %d entries to %s\n" (List.length !entries) path

let () =
  print_endline
    "Reproduction benches: Tian, Sha, Chantrapornchai, Kogge -- \"Optimizing\n\
     Data Scheduling on Processor-In-Memory Arrays\" (IPPS 1998)";
  if quick then begin
    figure1 ();
    let engine = engine_scaling () in
    let kernel = kernel_bench () in
    let serve = serve_bench () in
    let multi = multi_bench () in
    let incremental = incremental_bench () in
    let timed = timed_bench () in
    json_snapshot ~kernel ~serve ~multi ~engine ~incremental ~timed ();
    print_endline "\nQuick benches complete."
  end
  else begin
    figure1 ();
    tables ();
    characterization ();
    ablation_window_size ();
    ablation_headroom ();
    ablation_mesh_size ();
    ablation_topology ();
    ablation_refinement ();
    ablation_adaptation ();
    ablation_replication ();
    ablation_annealing ();
    ablation_online ();
    ablation_partition ();
    congestion ();
    timing ();
    let engine = engine_scaling () in
    let kernel = kernel_bench () in
    let serve = serve_bench () in
    let multi = multi_bench () in
    let incremental = incremental_bench () in
    let timed = timed_bench () in
    json_snapshot ~kernel ~serve ~multi ~engine ~incremental ~timed ();
    print_endline "\nAll benches complete."
  end
