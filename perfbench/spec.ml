(* One benchmark request: its wire encoding and its expected answer.

   The expected answer is computed through the one-shot public API
   (Problem.create + Scheduler.solve, Group_solver.evaluate, the timed
   simulator) — never through the serve library — so a served answer is
   checked against an independent path, byte for byte. *)

module J = Obs.Json

type source =
  | Generated of { workload : string; size : int; partition : string }
  | Inline of string  (** a Reftrace.Serial v1 text *)

type link = Unit_model | Wormhole

type t = {
  source : source;
  rows : int;
  cols : int;
  torus : bool;
  arrays : string option;  (** group spec; the mesh fields are then unused *)
  unbounded : bool;
  algorithm : string;
  fault_seed : int option;  (** seeded node faults at [node_rate] *)
  timed : link option;
  deadline_ms : int option;
}

let node_rate = 0.05

let make ?(rows = 16) ?(cols = 16) ?(torus = false) ?arrays ?(unbounded = false)
    ?fault_seed ?timed ?deadline_ms source algorithm =
  {
    source;
    rows;
    cols;
    torus;
    arrays;
    unbounded;
    algorithm;
    fault_seed;
    timed;
    deadline_ms;
  }

let generated ?(partition = "block-2d") workload size =
  Generated { workload; size; partition }

(* Long requests run the whole-trace DP; everything else is short. The
   class fixes the latency limit a request is judged against. *)
let is_long r =
  r.arrays <> None
  || List.mem r.algorithm [ "gomcds"; "gomcds-grouped" ]

let limit_ms r = if is_long r then 1000. else 50.

let wormhole =
  [
    ("bandwidth", J.Int 2);
    ("flit", J.Int 4);
    ("wormhole", J.Bool true);
    ("queue_depth", J.Int 4);
    ("compute_cycles", J.Int 1);
  ]

let fields r =
  let opt k f = function None -> [] | Some v -> [ (k, f v) ] in
  (match r.source with
  | Generated { workload; size; partition } ->
      [
        ("workload", J.String workload);
        ("size", J.Int size);
        ("partition", J.String partition);
      ]
  | Inline text -> [ ("trace", J.String text) ])
  @ (match r.arrays with
    | Some a -> [ ("arrays", J.String a) ]
    | None ->
        [
          ( "mesh",
            J.Obj
              [
                ("rows", J.Int r.rows);
                ("cols", J.Int r.cols);
                ("torus", J.Bool r.torus);
              ] );
        ])
  @ (if r.unbounded then [ ("unbounded", J.Bool true) ] else [])
  @ [ ("algorithm", J.String r.algorithm) ]
  @ opt "fault"
      (fun s -> J.Obj [ ("seed", J.Int s); ("node_rate", J.Float node_rate) ])
      r.fault_seed
  @ (match r.timed with
    | None -> []
    | Some Unit_model -> [ ("timed", J.Bool true) ]
    | Some Wormhole ->
        [ ("timed", J.Bool true); ("link_model", J.Obj wormhole) ])
  @ opt "deadline_ms" (fun ms -> J.Int ms) r.deadline_ms

let line ~id r = J.to_string (J.Obj (("id", J.Int id) :: fields r))

(* Everything the answer depends on: the payload minus its deadline. *)
let answer_key r = J.to_string (J.Obj (fields { r with deadline_ms = None }))

(* ---- the oracle: mirrors what the CLI does for the same instance ---- *)

let partition_of_name = function
  | "block-2d" -> Workloads.Iteration_space.Block_2d
  | "row-blocks" -> Workloads.Iteration_space.Row_blocks
  | "col-blocks" -> Workloads.Iteration_space.Col_blocks
  | "cyclic-2d" -> Workloads.Iteration_space.Cyclic_2d
  | s -> invalid_arg ("unknown partition " ^ s)

let generate ~workload ~size:n ~partition mesh =
  let partition = partition_of_name partition in
  match workload with
  | "stencil" -> Workloads.Stencil.trace ~partition ~n ~sweeps:8 mesh
  | "tc" -> Workloads.Transitive_closure.trace ~partition ~n mesh
  | "fft" -> Workloads.Fft_transpose.trace ~partition ~n mesh
  | "cholesky" -> Workloads.Cholesky.trace ~partition ~n mesh
  | "reduction" ->
      Workloads.Reduction.trace ~partition ~n ~bins:(Pim.Mesh.size mesh) mesh
  | label ->
      Workloads.Benchmarks.trace ~partition
        (Workloads.Benchmarks.of_label label)
        ~n mesh

let mesh_of r =
  if r.torus then Pim.Mesh.torus ~rows:r.rows ~cols:r.cols
  else Pim.Mesh.create ~rows:r.rows ~cols:r.cols

(* The trace a request's instance describes: generated workloads are
   built here, inline texts are parsed the way a trace file is. *)
let trace_of r mesh =
  match r.source with
  | Generated { workload; size; partition } ->
      generate ~workload ~size ~partition mesh
  | Inline text -> Reftrace.Serial.of_string text

let policy ~unbounded trace mesh =
  if unbounded then Sched.Problem.Unbounded
  else
    Sched.Problem.Bounded
      (Pim.Memory.capacity_for
         ~data_count:(Reftrace.Data_space.size (Reftrace.Trace.space trace))
         ~mesh ~headroom:2)

let link_model = function
  | Unit_model -> Pim.Link_model.degenerate
  | Wormhole ->
      Pim.Link_model.create ~bandwidth:2 ~flit:4 ~wormhole:true ~queue_depth:4
        ~compute_cycles:1 ()

let timed_fields ~fault ~model mesh rounds =
  let r = Pim.Timed_simulator.run ~fault ~model mesh rounds in
  [
    ( "timed",
      J.Obj
        [
          ("cycles", J.Int r.Pim.Timed_simulator.total_cycles);
          ("volume_hops", J.Int r.total_volume_hops);
          ("link_utilization", J.Float r.link_utilization);
          ("bandwidth_idle", J.Int r.bandwidth_idle);
          ("queue_stall_cycles", J.Int r.queue_stall_cycles);
          ("compute_idle", J.Int r.compute_idle);
          ("energy", J.Float r.energy);
        ] );
  ]

let solve_single r =
  let mesh = mesh_of r in
  let trace = trace_of r mesh in
  let fault =
    match r.fault_seed with
    | None -> Pim.Fault.none
    | Some seed -> Pim.Fault.inject ~seed ~node_rate ~link_rate:0. mesh
  in
  let problem =
    Sched.Problem.create ~policy:(policy ~unbounded:r.unbounded trace mesh)
      ~fault mesh trace
  in
  let algorithm = Sched.Scheduler.of_name r.algorithm in
  let schedule = Sched.Scheduler.solve problem algorithm in
  let b = Sched.Schedule.cost schedule trace in
  [
    ("algorithm", J.String (Sched.Scheduler.name algorithm));
    ("total", J.Int b.Sched.Schedule.total);
    ("reference", J.Int b.reference);
    ("movement", J.Int b.movement);
    ("moves", J.Int (Sched.Schedule.moves schedule));
    ("plan", J.String (Sched.Schedule_serial.to_string schedule));
  ]
  @
  match r.timed with
  | None -> []
  | Some l ->
      timed_fields ~fault ~model:(link_model l) mesh
        (Sched.Schedule.to_rounds schedule trace)

let solve_group r spec =
  let group = Multi.Array_group.of_spec ~torus:r.torus spec in
  let trace =
    match r.source with
    | Inline text -> Reftrace.Serial.of_string text
    | Generated { workload; size; partition } ->
        Multi.Array_group.remap_virtual_trace group
          (generate ~workload ~size ~partition
             (Multi.Array_group.virtual_mesh group))
  in
  let flat = Pim.Mesh.create ~rows:1 ~cols:(Multi.Array_group.size group) in
  let gp =
    Multi.Group_problem.create
      ~policy:(policy ~unbounded:r.unbounded trace flat)
      group trace
  in
  let algorithm = Sched.Scheduler.of_name r.algorithm in
  let plan, b = Multi.Group_solver.evaluate gp algorithm in
  [
    ("algorithm", J.String (Sched.Scheduler.name algorithm));
    ("arrays", J.Int (Multi.Array_group.n_members group));
    ("total", J.Int b.Multi.Group_schedule.total);
    ("reference", J.Int b.reference);
    ("movement", J.Int b.movement);
    ("moves", J.Int (Multi.Group_schedule.moves plan));
    ("array_moves", J.Int (Multi.Group_schedule.array_moves plan));
    ("plan", J.String (Multi.Group_serial.to_string plan));
  ]

(* The [result] object a correct server answers [r] with. *)
let expected r =
  match r.arrays with Some spec -> solve_group r spec | None -> solve_single r
