(* pimsched — command-line front-end for the PIM data-scheduling library.

   Subcommands:
     schedule      run one algorithm on one workload instance
     compare       run every algorithm on one instance (plus lower bound)
     table         regenerate the paper's Table 1 or Table 2
     example       print the Section 3.3 worked example (Figure 1)
     show          ASCII heatmaps of a window and a schedule
     faults        degradation ablation under seeded node/link faults
     export-trace  serialize a workload's reference trace to a file *)

open Cmdliner

(* ---------------------------------------------------------------- *)
(* Argument converters                                               *)
(* ---------------------------------------------------------------- *)

let mesh_conv =
  let parse s =
    match String.split_on_char 'x' s with
    | [ r; c ] -> (
        match (int_of_string_opt r, int_of_string_opt c) with
        | Some rows, Some cols when rows > 0 && cols > 0 ->
            Ok (rows, cols)
        | _ -> Error (`Msg (Printf.sprintf "invalid mesh %S" s)))
    | _ -> Error (`Msg (Printf.sprintf "invalid mesh %S (expected RxC)" s))
  in
  let print fmt (rows, cols) = Format.fprintf fmt "%dx%d" rows cols in
  Arg.conv (parse, print)

let algorithm_conv =
  let parse s =
    try Ok (Sched.Scheduler.of_name s)
    with Invalid_argument m -> Error (`Msg m)
  in
  let print fmt a = Format.pp_print_string fmt (Sched.Scheduler.name a) in
  Arg.conv (parse, print)

(* ---------------------------------------------------------------- *)
(* Common arguments                                                  *)
(* ---------------------------------------------------------------- *)

let mesh_arg =
  Arg.(
    value & opt mesh_conv (4, 4)
    & info [ "mesh" ] ~docv:"RxC" ~doc:"Processor array shape.")

let torus_arg =
  Arg.(
    value & flag
    & info [ "torus" ] ~doc:"Use wrap-around (torus) links instead of a mesh.")

let workload_arg =
  Arg.(
    value & opt string "1"
    & info [ "benchmark"; "b" ] ~docv:"W"
        ~doc:
          "Workload: paper benchmark 1..5, or extension kernels $(b,stencil), \
           $(b,tc) (transitive closure), $(b,fft), $(b,cholesky), \
           $(b,reduction).")

let size_arg =
  Arg.(
    value & opt int 8
    & info [ "size"; "n" ] ~docv:"N" ~doc:"Data array is N x N.")

let partition_arg =
  Arg.(
    value & opt string "block-2d"
    & info [ "partition" ] ~docv:"NAME" ~doc:"Iteration partition.")

let unbounded_arg =
  Arg.(
    value & flag
    & info [ "unbounded" ]
        ~doc:"Ignore processor memory capacity (paper default is 2x minimum).")

let trace_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "trace-file" ] ~docv:"PATH"
        ~doc:
          "Load a serialized reference trace instead of generating a \
           workload (see export-trace).")

(* An integer flag that must be >= 1, named [docv] in its error. *)
let positive docv =
  let parse s =
    match Cmdliner.Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "expected %s >= 1, got %d" docv n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Cmdliner.Arg.conv_printer Arg.int)

let jobs_arg =
  Arg.(
    value
    & opt (positive "N") (Sched.Engine.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains used for per-datum work (cost vectors, per-datum DPs). \
           Schedules are identical at any setting; the default fits the \
           machine.")

let arrays_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "arrays" ] ~docv:"SPEC"
        ~doc:
          "Schedule on a group of PIM arrays instead of one mesh: \
           $(b,RxCofAxB) tiles RxC identical AxB arrays on a grid \
           interconnect (e.g. $(b,2x2of8x8)), or a comma list \
           $(b,AxB,CxD,...) joins heterogeneous arrays on a line. \
           $(b,--mesh) is ignored; $(b,--torus) wraps the member arrays.")

let inter_cost_arg =
  Arg.(
    value & opt (positive "K") 10
    & info [ "inter-cost" ] ~docv:"K"
        ~doc:
          "Per-hop cost multiplier of the inter-array interconnect (group \
           instances only; default 10).")

let simulate_arg =
  Arg.(
    value & flag
    & info [ "simulate" ]
        ~doc:
          "Also execute the schedule on the message-level simulator and \
           report measured traffic.")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"PATH"
        ~doc:
          "Enable the observability layer and write a JSON metrics snapshot \
           here when the command finishes.")

(* ---------------------------------------------------------------- *)
(* Observability plumbing                                            *)
(* ---------------------------------------------------------------- *)

(* Flip the switch before any Problem is built so cache fills count. *)
let obs_begin metrics_json =
  if metrics_json <> None then begin
    Obs.enabled := true;
    Obs.reset ()
  end

(* [to_stderr] keeps the confirmation off stdout for commands whose
   stdout is a wire protocol (serve). *)
let obs_finish ?(to_stderr = false) ~command ~jobs metrics_json =
  match metrics_json with
  | None -> ()
  | Some path ->
      Obs.Json.write_file path
        (Obs.Export.metrics_json
           ~extra:
             [
               ("command", Obs.Json.String command);
               ("jobs", Obs.Json.Int jobs);
             ]
           (Obs.Metrics.snapshot ()));
      (if to_stderr then Printf.eprintf else Printf.printf)
        "metrics written to %s\n" path

(* ---------------------------------------------------------------- *)
(* Instances                                                         *)
(* ---------------------------------------------------------------- *)

(* An instance as its flags describe it: the serve protocol's record,
   so both front ends build it with [Serve.Instance.build], plus the
   file a [--trace-file] text is read from. *)
type instance = {
  spec : Serve.Protocol.instance;
  trace_file : string option;
}

(* The instance flags. Every instance-taking subcommand reads the
   workload, mesh and partition flags; [~unbounded], [~trace_file] and
   [~arrays] add the capacity, loaded-trace and group flags. Without
   [--unbounded] among its flags an instance is unbounded. *)
let instance_term ~unbounded ~trace_file ~arrays =
  let flag present arg default = if present then arg else Term.const default in
  let make workload size (rows, cols) torus partition unbounded trace_file
      arrays inter_cost =
    {
      spec =
        {
          Serve.Protocol.workload;
          trace_text = None;
          size;
          partition;
          mesh = { Serve.Protocol.rows; cols; torus };
          arrays;
          inter_cost;
          unbounded;
        };
      trace_file;
    }
  in
  Term.(
    const make $ workload_arg $ size_arg $ mesh_arg $ torus_arg
    $ partition_arg
    $ flag unbounded unbounded_arg true
    $ flag trace_file trace_file_arg None
    $ flag arrays arrays_arg None
    $ flag arrays inter_cost_arg 10)

let workload_name i = Serve.Instance.workload_name i.spec.workload

let build i =
  Serve.Instance.build
    (match i.trace_file with
    | None -> i.spec
    | Some path ->
        let text = In_channel.with_open_bin path In_channel.input_all in
        { i.spec with Serve.Protocol.trace_text = Some text })

(* Build the instance and announce it on one line. *)
let open_instance i =
  let built = build i in
  let target, trace, policy =
    match built with
    | Serve.Instance.Mesh { mesh; trace; policy } ->
        (Format.asprintf "%a" Pim.Mesh.pp mesh, trace, policy)
    | Serve.Instance.Group { group; trace; policy } ->
        (Format.asprintf "%a" Multi.Array_group.pp group, trace, policy)
  in
  Printf.printf "workload %s: %s on %s%s\n"
    (match i.trace_file with
    | Some path -> Printf.sprintf "from %s" path
    | None -> workload_name i)
    (Format.asprintf "%a" Reftrace.Trace.pp trace)
    target
    (match policy with
    | Sched.Problem.Unbounded -> ", unbounded memory"
    | Sched.Problem.Bounded c -> Printf.sprintf ", capacity %d" c);
  built

(* Subcommands without [--arrays] only ever build single-mesh
   instances. *)
let solo = function
  | Serve.Instance.Mesh { mesh; trace; policy } -> (mesh, trace, policy)
  | Serve.Instance.Group _ -> invalid_arg "expected a single-mesh instance"

(* ---------------------------------------------------------------- *)
(* Subcommand implementations                                        *)
(* ---------------------------------------------------------------- *)

(* Write the plan when asked, then print the result line the mesh and
   group paths share ([extra] ends it). *)
let report_plan ~plan_out ~save ?(extra = "") algorithm
    (b : Sched.Schedule.cost_breakdown) plan =
  Option.iter
    (fun path ->
      save plan path;
      Printf.printf "plan written to %s\n" path)
    plan_out;
  Printf.printf "%-16s total=%6d  reference=%6d  movement=%6d  moves=%d%s\n"
    (Sched.Scheduler.name algorithm)
    b.total b.reference b.movement
    (Sched.Schedule.moves plan)
    extra

let run_schedule_group group trace policy algorithm jobs plan_out =
  let gp = Multi.Group_problem.create ~policy ~jobs group trace in
  let plan, breakdown = Multi.Group_solver.evaluate gp algorithm in
  report_plan ~plan_out ~save:Multi.Group_serial.save
    ~extra:
      (Printf.sprintf "  array-moves=%d"
         (Multi.Group_schedule.array_moves plan))
    algorithm breakdown plan

let run_schedule instance algorithm jobs simulate plan_out metrics_json =
  if simulate && instance.spec.arrays <> None then
    failwith "--simulate is not supported with --arrays (no group simulator)";
  obs_begin metrics_json;
  (match open_instance instance with
  | Serve.Instance.Group { group; trace; policy } ->
      run_schedule_group group trace policy algorithm jobs plan_out
  | Serve.Instance.Mesh { mesh; trace; policy } ->
      let problem = Sched.Problem.create ~policy ~jobs mesh trace in
      let schedule = Sched.Scheduler.solve problem algorithm in
      report_plan ~plan_out ~save:Sched.Schedule_serial.save algorithm
        (Sched.Schedule.cost schedule trace)
        schedule;
      if simulate then begin
        let report =
          Pim.Simulator.run mesh (Sched.Schedule.to_rounds schedule trace)
        in
        Format.printf "%a@." Pim.Simulator.pp_report report
      end);
  obs_finish ~command:"schedule" ~jobs metrics_json

let run_compare_group group trace policy jobs =
  (* one group problem: member sessions and weight tables are shared by
     every algorithm *)
  let gp = Multi.Group_problem.create ~policy ~jobs group trace in
  let bound = Multi.Group_solver.lower_bound gp in
  let baseline =
    (Multi.Group_schedule.cost
       (Multi.Group_solver.solve gp Sched.Scheduler.Row_wise)
       trace)
      .total
  in
  List.iter
    (fun algorithm ->
      let _, breakdown = Multi.Group_solver.evaluate gp algorithm in
      let total = breakdown.Multi.Group_schedule.total in
      match bound with
      | Some bound ->
          Printf.printf
            "%-16s total=%6d  improvement=%5.1f%%  gap-to-bound=%5.1f%%\n"
            (Sched.Scheduler.name algorithm)
            total
            (Sched.Scheduler.improvement ~baseline ~cost:total)
            (Sched.Bounds.gap ~bound ~cost:total)
      | None ->
          Printf.printf "%-16s total=%6d  improvement=%5.1f%%\n"
            (Sched.Scheduler.name algorithm)
            total
            (Sched.Scheduler.improvement ~baseline ~cost:total))
    Sched.Scheduler.all;
  match bound with
  | Some bound ->
      Printf.printf
        "%-16s total=%6d  (sum of per-datum optima, group metric)\n"
        "lower-bound" bound
  | None -> ()

(* ---------------------------------------------------------------- *)
(* Cycle-honest ranking: hop·volume rank vs simulated-cycle rank     *)
(* ---------------------------------------------------------------- *)

(* Competition ranking: 1 + number of strictly better values, so ties
   share a rank and the comparison is insensitive to within-tie order. *)
let competition_ranks values =
  List.map
    (fun v -> 1 + List.length (List.filter (fun w -> w < v) values))
    values

(* Run every portfolio algorithm on [problem], price it both ways — the
   paper's hop·volume scalar and the timed backend's cycles under
   [model] — and flag every algorithm whose rank differs between the two
   metrics. Returns the JSON rows plus the disagreement count. *)
let cycles_table ?(model = Pim.Link_model.degenerate) problem mesh trace =
  let measured =
    List.map
      (fun algorithm ->
        let schedule = Sched.Scheduler.solve problem algorithm in
        let hopvol = Sched.Schedule.total_cost schedule trace in
        let report =
          Pim.Timed_simulator.run ~model mesh
            (Sched.Schedule.to_rounds schedule trace)
        in
        (algorithm, hopvol, report))
      Sched.Scheduler.all
  in
  let hop_ranks = competition_ranks (List.map (fun (_, h, _) -> h) measured) in
  let cycle_ranks =
    competition_ranks
      (List.map
         (fun (_, _, r) -> r.Pim.Timed_simulator.total_cycles)
         measured)
  in
  Format.printf "link model: %a@." Pim.Link_model.pp model;
  Printf.printf "%-16s %9s %4s %9s %4s %6s %7s %9s\n" "algorithm" "hop-vol"
    "rank" "cycles" "rank" "util" "stalls" "energy";
  let disagreements = ref 0 in
  let rows =
    List.map2
      (fun ((algorithm, hopvol, report), hop_rank) cycle_rank ->
        let disagree = hop_rank <> cycle_rank in
        if disagree then incr disagreements;
        Printf.printf "%-16s %9d %4d %9d %4d %6.2f %7d %9.0f%s\n"
          (Sched.Scheduler.name algorithm)
          hopvol hop_rank report.Pim.Timed_simulator.total_cycles cycle_rank
          report.Pim.Timed_simulator.link_utilization
          report.Pim.Timed_simulator.queue_stall_cycles
          report.Pim.Timed_simulator.energy
          (if disagree then "  *" else "");
        Obs.Json.Obj
          [
            ("algorithm", Obs.Json.String (Sched.Scheduler.name algorithm));
            ("hop_volume", Obs.Json.Int hopvol);
            ("hop_rank", Obs.Json.Int hop_rank);
            ("cycles", Obs.Json.Int report.Pim.Timed_simulator.total_cycles);
            ("cycle_rank", Obs.Json.Int cycle_rank);
            ("disagree", Obs.Json.Bool disagree);
            ( "link_utilization",
              Obs.Json.Float report.Pim.Timed_simulator.link_utilization );
            ( "queue_stall_cycles",
              Obs.Json.Int report.Pim.Timed_simulator.queue_stall_cycles );
            ( "compute_idle",
              Obs.Json.Int report.Pim.Timed_simulator.compute_idle );
            ("energy", Obs.Json.Float report.Pim.Timed_simulator.energy);
          ])
      (List.combine measured hop_ranks)
      cycle_ranks
  in
  Printf.printf
    "%d/%d schedulers ranked differently by cycles than by hop-volume (*)\n"
    !disagreements (List.length measured);
  (rows, !disagreements)

let run_compare instance jobs timed metrics_json =
  if timed && instance.spec.arrays <> None then
    failwith "--timed is not supported with --arrays (no group simulator)";
  obs_begin metrics_json;
  (match open_instance instance with
  | Serve.Instance.Group { group; trace; policy } ->
      run_compare_group group trace policy jobs
  | Serve.Instance.Mesh { mesh; trace; policy } ->
      (* one context: the bound and all twelve algorithms share its caches *)
      let problem = Sched.Problem.create ~policy ~jobs mesh trace in
      let bound = Sched.Bounds.lower_bound_in problem in
      let baseline =
        Sched.Schedule.total_cost
          (Sched.Scheduler.solve problem Sched.Scheduler.Row_wise)
          trace
      in
      List.iter
        (fun algorithm ->
          let schedule = Sched.Scheduler.solve problem algorithm in
          let total = Sched.Schedule.total_cost schedule trace in
          Printf.printf
            "%-16s total=%6d  improvement=%5.1f%%  gap-to-bound=%5.1f%%\n"
            (Sched.Scheduler.name algorithm)
            total
            (Sched.Scheduler.improvement ~baseline ~cost:total)
            (Sched.Bounds.gap ~bound ~cost:total))
        Sched.Scheduler.all;
      Printf.printf "%-16s total=%6d  (sum of per-datum optima)\n"
        "lower-bound" bound;
      if timed then ignore (cycles_table problem mesh trace));
  obs_finish ~command:"compare" ~jobs metrics_json

let run_cycles instance jobs bandwidth flit wormhole queue_depth
    compute_cycles json_out metrics_json =
  obs_begin metrics_json;
  let model =
    Pim.Link_model.create ~bandwidth ~flit ~wormhole ?queue_depth
      ~compute_cycles ()
  in
  let mesh, trace, policy = solo (open_instance instance) in
  let problem = Sched.Problem.create ~policy ~jobs mesh trace in
  let rows, disagreements = cycles_table ~model problem mesh trace in
  (match json_out with
  | Some path ->
      Obs.Json.write_file path
        (Obs.Json.Obj
           [
             ("schema", Obs.Json.String "pim-sched-cycles/1");
             ("workload", Obs.Json.String (workload_name instance));
             ( "mesh",
               Obs.Json.String (Format.asprintf "%a" Pim.Mesh.pp mesh) );
             ( "model",
               Obs.Json.String
                 (Format.asprintf "%a" Pim.Link_model.pp model) );
             ("disagreements", Obs.Json.Int disagreements);
             ("rows", Obs.Json.List rows);
           ]);
      Printf.printf "cycle table written to %s\n" path
  | None -> ());
  obs_finish ~command:"cycles" ~jobs metrics_json

let run_table which (rows, cols) sizes jobs =
  let mesh = Pim.Mesh.create ~rows ~cols in
  let grouped = which = 2 in
  let algos =
    if grouped then Sched.Scheduler.[ Scds; Lomcds_grouped; Gomcds_grouped ]
    else Sched.Scheduler.[ Scds; Lomcds; Gomcds ]
  in
  let rows =
    List.concat_map
      (fun bench ->
        List.map
          (fun n ->
            let trace = Workloads.Benchmarks.trace bench ~n mesh in
            let capacity = Workloads.Benchmarks.capacity bench ~n mesh in
            let problem =
              Sched.Problem.create
                ~policy:(Sched.Problem.Bounded capacity) ~jobs mesh trace
            in
            let cost algorithm =
              Sched.Schedule.total_cost
                (Sched.Scheduler.solve problem algorithm)
                trace
            in
            let baseline = cost Sched.Scheduler.Row_wise in
            {
              Sched.Report.benchmark = Workloads.Benchmarks.label bench;
              size = Printf.sprintf "%dx%d" n n;
              baseline;
              entries =
                List.map (fun a -> Sched.Report.entry ~baseline (cost a)) algos;
            })
          sizes)
      Workloads.Benchmarks.all
  in
  let title =
    Printf.sprintf
      "Table %d: total communication cost %s grouping (processor array = \
       %dx%d)"
      which
      (if grouped then "after" else "before")
      (Pim.Mesh.rows mesh) (Pim.Mesh.cols mesh)
  in
  print_string
    (Sched.Report.render ~title ~columns:[ "SCDS"; "LOMCDS"; "GOMCDS" ] rows)

let run_example () =
  print_endline "Worked example (paper Section 3.3 / Figure 1):";
  Format.printf "%a@." Reftrace.Trace.pp Sched.Example.trace;
  List.iteri
    (fun i window ->
      Printf.printf "\nwindow %d references of D:\n" i;
      print_string (Sched.Viz.window_heatmap Sched.Example.mesh window ~data:0))
    (Reftrace.Trace.windows Sched.Example.trace);
  print_newline ();
  List.iter
    (fun o -> Format.printf "%a@." Sched.Example.pp_outcome o)
    (Sched.Example.all ())

let run_show instance algorithm window data =
  let mesh, trace, policy = solo (open_instance instance) in
  if window < 0 || window >= Reftrace.Trace.n_windows trace then
    failwith
      (Printf.sprintf "window %d out of range (trace has %d)" window
         (Reftrace.Trace.n_windows trace));
  let w = Reftrace.Trace.window trace window in
  Printf.printf "\ntotal references in window %d:\n" window;
  print_string (Sched.Viz.total_heatmap mesh w);
  (match data with
  | Some d ->
      Printf.printf "\nreferences to datum %d (%s) in window %d:\n" d
        (Reftrace.Data_space.describe (Reftrace.Trace.space trace) d)
        window;
      print_string (Sched.Viz.window_heatmap mesh w ~data:d)
  | None -> ());
  let schedule =
    Sched.Scheduler.solve (Sched.Problem.create ~policy mesh trace) algorithm
  in
  Printf.printf "\n%s data placement (load per processor) in window %d:\n"
    (Sched.Scheduler.name algorithm)
    window;
  print_string (Sched.Viz.load_map mesh schedule ~window);
  match data with
  | Some d ->
      Printf.printf "\ntrajectory of datum %d: %s\n" d
        (Sched.Viz.trajectory mesh schedule ~data:d)
  | None -> ()

let run_profile algorithm instance jobs simulate chrome_out metrics_json =
  Obs.enabled := true;
  Obs.reset ();
  let mesh, trace, policy = solo (open_instance instance) in
  let t0 = Obs.now_us () in
  let problem = Sched.Problem.create ~policy ~jobs mesh trace in
  let schedule = Sched.Scheduler.solve problem algorithm in
  let breakdown = Sched.Schedule.cost schedule trace in
  if simulate then begin
    let rounds = Sched.Schedule.to_rounds schedule trace in
    ignore (Pim.Simulator.run mesh rounds);
    ignore (Pim.Timed_simulator.run mesh rounds)
  end;
  let wall_us = Obs.now_us () -. t0 in
  Printf.printf "%-16s total=%6d  reference=%6d  movement=%6d  moves=%d\n"
    (Sched.Scheduler.name algorithm)
    breakdown.Sched.Schedule.total breakdown.Sched.Schedule.reference
    breakdown.Sched.Schedule.movement
    (Sched.Schedule.moves schedule);
  Printf.printf "\nspan tree (wall %.1f ms, jobs=%d):\n" (wall_us /. 1e3) jobs;
  print_string (Obs.Export.flame_summary (Obs.Span.spans ()));
  print_newline ();
  print_string (Obs.Export.metrics_table (Obs.Metrics.snapshot ()));
  (match chrome_out with
  | Some path ->
      Obs.Json.write_file path (Obs.Export.chrome_trace (Obs.Span.spans ()));
      Printf.printf "chrome trace written to %s (load in chrome://tracing)\n"
        path
  | None -> ());
  match metrics_json with
  | Some path ->
      Obs.Json.write_file path
        (Obs.Export.metrics_json
           ~extra:
             [
               ("command", Obs.Json.String "profile");
               ("workload", Obs.Json.String (workload_name instance));
               ( "algorithm",
                 Obs.Json.String (Sched.Scheduler.name algorithm) );
               ("jobs", Obs.Json.Int jobs);
               ("wall_ms", Obs.Json.Float (wall_us /. 1e3));
             ]
           (Obs.Metrics.snapshot ()));
      Printf.printf "metrics written to %s\n" path
  | None -> ()

let run_faults_group instance group trace policy array_rate algorithm jobs
    seed rates link_rate at json_out =
  let gp = Multi.Group_problem.create ~policy ~jobs group trace in
  let n_windows = Reftrace.Trace.n_windows trace in
  let at =
    match at with
    | Some w -> w
    | None -> if n_windows <= 1 then 0 else max 1 (n_windows / 2)
  in
  Printf.printf
    "group degradation ablation: %s, faults arrive before window %d (seed \
     %d, array-rate %.3f, link-rate %.3f)\n"
    (Sched.Scheduler.name algorithm)
    at seed array_rate link_rate;
  Printf.printf "%-6s %-6s %-5s %-5s %8s %10s %12s %7s %7s\n" "rate"
    "arrays" "dead" "links" "planned" "rescheduled" "no-resched" "evict"
    "resched";
  let rows =
    List.map
      (fun node_rate ->
        let fault =
          Multi.Group_fault.inject ~seed ~array_rate ~node_rate ~link_rate
            group
        in
        let events = [ { Multi.Group_resilience.window = at; fault } ] in
        let re =
          Multi.Group_resilience.run ~reschedule:true ~events gp algorithm
        and keep =
          Multi.Group_resilience.run ~reschedule:false ~events gp algorithm
        in
        Printf.printf "%-6.3f %-6d %-5d %-5d %8d %10d %12d %7d %7d\n"
          node_rate
          (Multi.Group_fault.n_dead_arrays fault)
          (List.length
             (Pim.Fault.dead_nodes (Multi.Group_fault.node_fault fault)))
          (List.length
             (Pim.Fault.dead_links (Multi.Group_fault.node_fault fault)))
          re.Multi.Group_resilience.planned_cost
          re.Multi.Group_resilience.paid_cost
          keep.Multi.Group_resilience.paid_cost
          re.Multi.Group_resilience.evicted
          re.Multi.Group_resilience.reschedules;
        Obs.Json.Obj
          [
            ("node_rate", Obs.Json.Float node_rate);
            ("array_rate", Obs.Json.Float array_rate);
            ("link_rate", Obs.Json.Float link_rate);
            ( "dead_arrays",
              Obs.Json.Int (Multi.Group_fault.n_dead_arrays fault) );
            ( "dead_nodes",
              Obs.Json.Int
                (List.length
                   (Pim.Fault.dead_nodes (Multi.Group_fault.node_fault fault)))
            );
            ( "planned_cost",
              Obs.Json.Int re.Multi.Group_resilience.planned_cost );
            ( "paid_rescheduled",
              Obs.Json.Int re.Multi.Group_resilience.paid_cost );
            ( "paid_no_reschedule",
              Obs.Json.Int keep.Multi.Group_resilience.paid_cost );
            ("evicted", Obs.Json.Int re.Multi.Group_resilience.evicted);
            ( "evicted_cost",
              Obs.Json.Int re.Multi.Group_resilience.evicted_cost );
            ( "reschedules",
              Obs.Json.Int re.Multi.Group_resilience.reschedules );
          ])
      rates
  in
  match json_out with
  | Some path ->
      Obs.Json.write_file path
        (Obs.Json.Obj
           [
             ("schema", Obs.Json.String "pim-sched-group-faults/1");
             ("algorithm", Obs.Json.String (Sched.Scheduler.name algorithm));
             ("workload", Obs.Json.String (workload_name instance));
             ("arrays", Obs.Json.String (Option.get instance.spec.arrays));
             ("inter_cost", Obs.Json.Int instance.spec.inter_cost);
             ("seed", Obs.Json.Int seed);
             ("event_window", Obs.Json.Int at);
             ("rows", Obs.Json.List rows);
           ]);
      Printf.printf "ablation written to %s\n" path
  | None -> ()

let run_faults algorithm instance jobs seed rates link_rate at json_out
    metrics_json array_rate =
  if array_rate <> 0. && instance.spec.arrays = None then
    failwith "--array-rate requires --arrays";
  obs_begin metrics_json;
  match open_instance instance with
  | Serve.Instance.Group { group; trace; policy } ->
      run_faults_group instance group trace policy array_rate algorithm jobs
        seed rates link_rate at json_out;
      obs_finish ~command:"faults" ~jobs metrics_json
  | Serve.Instance.Mesh { mesh; trace; policy } ->
  let problem = Sched.Problem.create ~policy ~jobs mesh trace in
  let n_windows = Reftrace.Trace.n_windows trace in
  let at =
    match at with
    | Some w -> w
    | None -> if n_windows <= 1 then 0 else max 1 (n_windows / 2)
  in
  Printf.printf
    "degradation ablation: %s, faults arrive before window %d (seed %d, \
     link-rate %.3f)\n"
    (Sched.Scheduler.name algorithm)
    at seed link_rate;
  Printf.printf "%-6s %-5s %-5s %8s %10s %12s %7s %8s %7s %7s\n" "rate"
    "dead" "links" "planned" "rescheduled" "no-resched" "evict" "reroute"
    "undeliv" "remap";
  let rows =
    List.map
      (fun node_rate ->
        let fault =
          Pim.Fault.inject ~seed ~node_rate ~link_rate mesh
        in
        let events = [ { Sched.Resilience.window = at; fault } ] in
        let re = Sched.Resilience.run ~reschedule:true ~events problem
            algorithm
        and keep = Sched.Resilience.run ~reschedule:false ~events problem
            algorithm
        in
        Printf.printf "%-6.3f %-5d %-5d %8d %10d %12d %7d %8d %7d %7d\n"
          node_rate
          (Pim.Fault.n_dead_nodes fault)
          (Pim.Fault.n_dead_links fault)
          re.Sched.Resilience.planned_cost re.Sched.Resilience.paid_cost
          keep.Sched.Resilience.paid_cost re.Sched.Resilience.evicted
          re.Sched.Resilience.reroute_hops re.Sched.Resilience.undeliverable
          re.Sched.Resilience.remapped_refs;
        Obs.Json.Obj
          [
            ("node_rate", Obs.Json.Float node_rate);
            ("link_rate", Obs.Json.Float link_rate);
            ("dead_nodes", Obs.Json.Int (Pim.Fault.n_dead_nodes fault));
            ("dead_links", Obs.Json.Int (Pim.Fault.n_dead_links fault));
            ("planned_cost", Obs.Json.Int re.Sched.Resilience.planned_cost);
            ("paid_rescheduled", Obs.Json.Int re.Sched.Resilience.paid_cost);
            ( "paid_no_reschedule",
              Obs.Json.Int keep.Sched.Resilience.paid_cost );
            ("evicted", Obs.Json.Int re.Sched.Resilience.evicted);
            ("evicted_cost", Obs.Json.Int re.Sched.Resilience.evicted_cost);
            ("reroute_hops", Obs.Json.Int re.Sched.Resilience.reroute_hops);
            ("remapped_refs", Obs.Json.Int re.Sched.Resilience.remapped_refs);
            ( "undeliverable",
              Obs.Json.Int re.Sched.Resilience.undeliverable );
            ("reschedules", Obs.Json.Int re.Sched.Resilience.reschedules);
          ])
      rates
  in
  (match json_out with
  | Some path ->
      Obs.Json.write_file path
        (Obs.Json.Obj
           [
             ("schema", Obs.Json.String "pim-sched-faults/1");
             ("algorithm", Obs.Json.String (Sched.Scheduler.name algorithm));
             ("workload", Obs.Json.String (workload_name instance));
             ("seed", Obs.Json.Int seed);
             ("event_window", Obs.Json.Int at);
             ("rows", Obs.Json.List rows);
           ]);
      Printf.printf "ablation written to %s\n" path
  | None -> ());
  obs_finish ~command:"faults" ~jobs metrics_json

let run_export instance output =
  let _, trace, _ = solo (build instance) in
  Reftrace.Serial.save trace output;
  Printf.printf "wrote %s (%d windows, %d references) to %s\n"
    (workload_name instance)
    (Reftrace.Trace.n_windows trace)
    (Reftrace.Trace.total_references trace)
    output

(* ---------------------------------------------------------------- *)
(* Command definitions                                               *)
(* ---------------------------------------------------------------- *)

let full_instance = instance_term ~unbounded:true ~trace_file:true ~arrays:true
let mesh_instance = instance_term ~unbounded:true ~trace_file:true ~arrays:false

let algorithm_arg =
  Arg.(
    value
    & opt algorithm_conv Sched.Scheduler.Gomcds
    & info [ "algorithm"; "a" ] ~docv:"NAME"
        ~doc:
          "One of: row-wise, column-wise, block-2d, cyclic, random, scds, \
           lomcds, gomcds, lomcds-grouped, gomcds-grouped, gomcds-refined, \
           best-refined.")

let schedule_cmd =
  let plan_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan-out" ] ~docv:"PATH"
          ~doc:"Serialize the computed schedule to a plan file.")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Run one scheduling algorithm")
    Term.(
      const run_schedule $ full_instance $ algorithm_arg $ jobs_arg
      $ simulate_arg $ plan_out_arg $ metrics_json_arg)

let timed_arg =
  Arg.(
    value & flag
    & info [ "timed" ]
        ~doc:
          "Also re-run the comparison on the cycle-honest simulator \
           (degenerate link model) and flag schedulers whose cycle rank \
           disagrees with their hop-volume rank.")

let compare_cmd =
  Cmd.v
    (Cmd.info "compare" ~doc:"Run every algorithm on one instance")
    Term.(
      const run_compare $ full_instance $ jobs_arg $ timed_arg
      $ metrics_json_arg)

let cycles_cmd =
  let bandwidth_arg =
    Arg.(
      value & opt (positive "N") 1
      & info [ "bandwidth" ] ~docv:"N"
          ~doc:"Volume units per link per cycle.")
  in
  let flit_arg =
    Arg.(
      value & opt (positive "N") 1
      & info [ "flit" ] ~docv:"N"
          ~doc:"Fragment size for wormhole pipelining (with --wormhole).")
  in
  let wormhole_arg =
    Arg.(
      value & flag
      & info [ "wormhole" ]
          ~doc:
            "Pipeline messages as flit-sized fragments instead of \
             store-and-forward whole packets.")
  in
  let queue_depth_arg =
    Arg.(
      value
      & opt (some (positive "N")) None
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Bound router input queues at N waiting packets; a full \
             downstream queue stalls the upstream link (default: \
             unbounded).")
  in
  let compute_cycles_arg =
    Arg.(
      value & opt int 0
      & info [ "compute-cycles" ] ~docv:"N"
          ~doc:
            "Node occupancy per reference volume unit executed: a busy rank \
             cannot inject until done (default 0, compute is free).")
  in
  let json_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"PATH"
          ~doc:"Write the ranking table as JSON here.")
  in
  Cmd.v
    (Cmd.info "cycles"
       ~doc:
         "Re-run the scheduler comparison on simulated cycles: hop-volume \
          rank vs cycle rank under a configurable link model, disagreements \
          flagged")
    Term.(
      const run_cycles $ mesh_instance $ jobs_arg $ bandwidth_arg $ flit_arg
      $ wormhole_arg $ queue_depth_arg $ compute_cycles_arg $ json_out_arg
      $ metrics_json_arg)

let profile_cmd =
  let algorithm_pos_arg =
    Arg.(
      value
      & pos 0 algorithm_conv Sched.Scheduler.Gomcds
      & info [] ~docv:"ALGORITHM"
          ~doc:"Scheduler to profile (same names as --algorithm).")
  in
  let chrome_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-out" ] ~docv:"PATH"
          ~doc:
            "Write the span log as Chrome trace_event JSON (load in \
             chrome://tracing or Perfetto).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one scheduler with the observability layer on; print the \
          span tree and metrics table")
    Term.(
      const run_profile $ algorithm_pos_arg $ mesh_instance $ jobs_arg
      $ simulate_arg $ chrome_out_arg $ metrics_json_arg)

let table_cmd =
  let which_arg =
    Arg.(
      value & opt int 1
      & info [ "which" ] ~docv:"1|2" ~doc:"Which paper table to regenerate.")
  in
  let sizes_arg =
    Arg.(
      value
      & opt (list int) [ 8; 16; 32 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc:"Data sizes to sweep.")
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Regenerate paper Table 1 or 2")
    Term.(const run_table $ which_arg $ mesh_arg $ sizes_arg $ jobs_arg)

let example_cmd =
  Cmd.v
    (Cmd.info "example" ~doc:"Print the Section 3.3 worked example")
    Term.(const run_example $ const ())

let show_cmd =
  let window_arg =
    Arg.(
      value & opt int 0
      & info [ "window"; "w" ] ~docv:"I" ~doc:"Execution window to render.")
  in
  let data_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "data"; "d" ] ~docv:"ID" ~doc:"Datum to render in detail.")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Render heatmaps of a window and a schedule")
    Term.(
      const run_show $ mesh_instance $ algorithm_arg $ window_arg $ data_arg)

let run_replicate instance max_copies =
  let mesh, trace, policy = solo (open_instance instance) in
  let problem = Sched.Problem.create ~policy mesh trace in
  Printf.printf "single-copy lower bound: %d\n"
    (Sched.Bounds.lower_bound_in
       (Sched.Problem.with_policy problem Sched.Problem.Unbounded));
  List.iter
    (fun k ->
      let r = Sched.Replicated.schedule ~max_copies:k problem in
      let c = Sched.Replicated.cost r mesh trace in
      Printf.printf
        "max_copies=%-2d total=%6d (reads %6d + creation %5d + movement %5d)\n"
        k c.Sched.Replicated.total c.Sched.Replicated.reads
        c.Sched.Replicated.creation c.Sched.Replicated.primary_movement)
    (List.sort_uniq Int.compare [ 1; max_copies ])

let replicate_cmd =
  let copies_arg =
    Arg.(
      value & opt int 4
      & info [ "copies"; "k" ] ~docv:"K" ~doc:"Maximum live copies per datum.")
  in
  Cmd.v
    (Cmd.info "replicate"
       ~doc:"Schedule with read replication (write-invalidate coherence)")
    Term.(
      const run_replicate $ mesh_instance $ copies_arg)

let faults_cmd =
  let algorithm_pos_arg =
    Arg.(
      value
      & pos 0 algorithm_conv Sched.Scheduler.Gomcds
      & info [] ~docv:"ALGORITHM"
          ~doc:"Scheduler to degrade (same names as --algorithm).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:"Fault-injection seed (same seed, same fault sets).")
  in
  let rates_arg =
    Arg.(
      value
      & opt (list float) [ 0.0; 0.05; 0.1; 0.2 ]
      & info [ "rates" ] ~docv:"R,R,..."
          ~doc:"Node fault rates to sweep (fraction of processors killed).")
  in
  let link_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "link-rate" ] ~docv:"R"
          ~doc:
            "Link fault rate applied at every sweep point (dead links force \
             detours and downgrade the separable kernel).")
  in
  let at_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "at" ] ~docv:"W"
          ~doc:
            "Window before which the faults strike (default: mid-run, \
             $(b,n_windows / 2)).")
  in
  let json_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"PATH"
          ~doc:"Write the ablation table as JSON here.")
  in
  let array_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "array-rate" ] ~docv:"R"
          ~doc:
            "Whole-array fault rate applied at every sweep point (requires \
             $(b,--arrays); a dead array's processors stop hosting data but \
             its routers and fabric port stay alive).")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Degradation ablation: inject seeded node/link faults mid-run and \
          compare reschedule-on-failure against riding out the original \
          plan")
    Term.(
      const run_faults $ algorithm_pos_arg $ full_instance $ jobs_arg
      $ seed_arg $ rates_arg $ link_rate_arg $ at_arg $ json_out_arg
      $ metrics_json_arg $ array_rate_arg)

let export_cmd =
  let output_arg =
    Arg.(
      value
      & opt string "trace.out"
      & info [ "output"; "o" ] ~docv:"PATH" ~doc:"Destination file.")
  in
  Cmd.v
    (Cmd.info "export-trace" ~doc:"Serialize a workload's reference trace")
    Term.(
      const run_export
      $ instance_term ~unbounded:false ~trace_file:false ~arrays:false
      $ output_arg)

let run_stats instance =
  let mesh, trace, _ = solo (open_instance instance) in
  let p = Reftrace.Stats.profile mesh trace in
  Format.printf "%a@." Reftrace.Stats.pp_profile p;
  Printf.printf
    "drift > 0 means the hot spots move between windows (multi-center\n\
     scheduling has headroom); reuse is the fraction of per-window datum\n\
     uses that amortize an earlier placement decision.\n"

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Characterize a workload's reference pattern")
    Term.(
      const run_stats
      $ instance_term ~unbounded:false ~trace_file:true ~arrays:false)

let run_sweep sizes (rows, cols) torus output headroom jobs metrics_json =
  obs_begin metrics_json;
  let mesh =
    if torus then Pim.Mesh.torus ~rows ~cols else Pim.Mesh.create ~rows ~cols
  in
  let instances =
    List.concat_map
      (fun bench ->
        List.map
          (fun n ->
            ( Printf.sprintf "b%s-%dx%d" (Workloads.Benchmarks.label bench) n n,
              Workloads.Benchmarks.trace bench ~n mesh ))
          sizes)
      Workloads.Benchmarks.all
  in
  let rows = Sched.Sweep.run ~headroom ~jobs mesh instances Sched.Scheduler.all in
  let csv = Sched.Sweep.to_csv rows in
  (match output with
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc csv);
      Printf.printf "wrote %d rows to %s\n" (List.length rows) path
  | None -> print_string csv);
  obs_finish ~command:"sweep" ~jobs metrics_json

let sweep_cmd =
  let sizes_arg =
    Arg.(
      value
      & opt (list int) [ 8; 16 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc:"Data sizes to sweep.")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"PATH"
          ~doc:"Write CSV here instead of stdout.")
  in
  let headroom_arg =
    Arg.(
      value & opt int 2
      & info [ "headroom" ] ~docv:"H"
          ~doc:"Capacity = H x minimum; 0 = unbounded.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Run all algorithms over the benchmarks, emit CSV")
    Term.(
      const run_sweep $ sizes_arg $ mesh_arg $ torus_arg $ output_arg
      $ headroom_arg $ jobs_arg $ metrics_json_arg)

(* The --failpoints flag wins over the PIMSCHED_FAILPOINTS environment
   variable; either arms the registry before the daemon starts. *)
let arm_failpoints spec_flag =
  let spec =
    match spec_flag with
    | Some s -> Some s
    | None -> Sys.getenv_opt "PIMSCHED_FAILPOINTS"
  in
  Option.iter Obs.Failpoint.configure spec

let run_serve jobs batch max_arena_mb max_cache_mb max_line_bytes max_queue
    write_timeout_ms failpoints metrics_json =
  obs_begin metrics_json;
  arm_failpoints failpoints;
  let default = Serve.Server.default_config () in
  let config =
    {
      Serve.Server.jobs;
      batch;
      max_arena_bytes = Option.map (fun mb -> mb * 1024 * 1024) max_arena_mb;
      max_cache_bytes =
        (match max_cache_mb with
        | None -> default.Serve.Server.max_cache_bytes
        | Some mb -> mb * 1024 * 1024);
      max_line_bytes =
        Option.value max_line_bytes
          ~default:default.Serve.Server.max_line_bytes;
      max_queue = Option.value max_queue ~default:default.Serve.Server.max_queue;
      write_timeout_ms =
        Option.value write_timeout_ms
          ~default:default.Serve.Server.write_timeout_ms;
    }
  in
  let server = Serve.Server.create ~config () in
  Serve.Server.run server ~input:Unix.stdin ~output:Unix.stdout;
  obs_finish ~to_stderr:true ~command:"serve" ~jobs metrics_json

let serve_cmd =
  let batch_arg =
    Arg.(
      value & opt int 16
      & info [ "batch" ] ~docv:"N"
          ~doc:"Maximum requests answered per wave of the domain pool.")
  in
  let max_arena_mb_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-arena-mb" ] ~docv:"MB"
          ~doc:
            "Reject requests whose cost arenas would exceed this budget \
             (admission control); unlimited when absent.")
  in
  let max_cache_mb_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-cache-mb" ] ~docv:"MB"
          ~doc:
            "Bound on the bytes the context and warm-session caches hold \
             together (default 256); 0 disables caching.")
  in
  let max_line_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-line-bytes" ] ~docv:"BYTES"
          ~doc:
            "Reject request lines longer than this with a typed \
             parse-error (default 4 MiB).")
  in
  let max_queue_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Shed buffered backlog beyond N request lines with typed \
             overloaded responses (default 1024).")
  in
  let write_timeout_ms_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "write-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-response write budget before a slow-reading client is \
             dropped (default 5000).")
  in
  let failpoints_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "failpoints" ] ~docv:"SPEC"
          ~doc:
            "Arm deterministic failpoints, e.g. \
             'serve.solve=raise,n=1;serve.read=short_read'. Overrides \
             \\$(b,PIMSCHED_FAILPOINTS).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a long-lived scheduling daemon over stdin/stdout \
          (line-delimited JSON, protocol pim-sched-serve/1)")
    Term.(
      const run_serve $ jobs_arg $ batch_arg $ max_arena_mb_arg
      $ max_cache_mb_arg $ max_line_bytes_arg $ max_queue_arg
      $ write_timeout_ms_arg $ failpoints_arg $ metrics_json_arg)

let run_chaos seed jobs requests script_file json_out =
  let script =
    Option.map
      (fun path ->
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let rec go acc =
              match input_line ic with
              | line -> go (if String.trim line = "" then acc else line :: acc)
              | exception End_of_file -> List.rev acc
            in
            go []))
      script_file
  in
  let pass, report = Serve.Chaos.run ~seed ~jobs ~requests ?script () in
  (match json_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Obs.Json.to_string report);
          output_char oc '\n'));
  (match report with
  | Obs.Json.Obj fields -> (
      match List.assoc_opt "episodes" fields with
      | Some (Obs.Json.List eps) ->
          List.iter
            (fun ep ->
              match ep with
              | Obs.Json.Obj f ->
                  let str k =
                    match List.assoc_opt k f with
                    | Some (Obs.Json.String s) -> s
                    | _ -> "?"
                  in
                  let int k =
                    match List.assoc_opt k f with
                    | Some (Obs.Json.Int i) -> i
                    | _ -> 0
                  in
                  let ok =
                    match List.assoc_opt "pass" f with
                    | Some (Obs.Json.Bool true) -> "ok  "
                    | _ -> "FAIL"
                  in
                  Printf.printf "%s %-13s %3d req  %3d ok\n" ok
                    (str "episode") (int "requests") (int "ok");
                  (match List.assoc_opt "failures" f with
                  | Some (Obs.Json.List ms) ->
                      List.iter
                        (function
                          | Obs.Json.String m ->
                              Printf.printf "       - %s\n" m
                          | _ -> ())
                        ms
                  | _ -> ())
              | _ -> ())
            eps
      | _ -> ())
  | _ -> ());
  Printf.printf "chaos %s (seed %d)\n" (if pass then "PASS" else "FAIL") seed;
  if not pass then exit 1

let chaos_cmd =
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S"
          ~doc:"Seed for the probabilistic failpoint schedules.")
  in
  let requests_arg =
    Arg.(
      value & opt int 20
      & info [ "requests" ] ~docv:"N"
          ~doc:"Length of the generated default script.")
  in
  let script_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"PATH"
          ~doc:
            "Replay this file of request lines (one JSON request per \
             line) instead of the generated LU 16x16 script.")
  in
  let json_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"PATH"
          ~doc:"Write the chaos report (chaos.json) here.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Replay a request script through the serve daemon under a \
          seeded failpoint schedule and check its hardening invariants")
    Term.(
      const run_chaos $ seed_arg $ jobs_arg $ requests_arg $ script_arg
      $ json_out_arg)

let main =
  Cmd.group
    (Cmd.info "pimsched" ~version:"1.0.0"
       ~doc:"Data scheduling on Processor-In-Memory arrays (IPPS 1998)")
    [
      schedule_cmd;
      compare_cmd;
      cycles_cmd;
      profile_cmd;
      table_cmd;
      example_cmd;
      show_cmd;
      replicate_cmd;
      faults_cmd;
      export_cmd;
      sweep_cmd;
      stats_cmd;
      serve_cmd;
      chaos_cmd;
    ]

(* A refused instance or option surfaces as one [pimsched: <message>]
   line and exit code 123, never as Cmdliner's uncaught-exception 125. *)
let () =
  match Cmd.eval ~catch:false main with
  | code -> exit code
  | exception (Invalid_argument m | Failure m | Sys_error m) ->
      prerr_endline ("pimsched: " ^ m);
      exit Cmd.Exit.some_error
