type t = {
  group : Array_group.t;
  trace : Reftrace.Trace.t;
  policy : Sched.Problem.capacity_policy;
  jobs : int;
  kernel : Sched.Problem.kernel;
  fault : Group_fault.t;
  subs : Sched.Problem.t array;
  (* weights.(w).(d).(m) = combined reference count of datum d from
     member m's processors in window w; None for a 1-member group (the
     cross layer is identically zero there) *)
  weights : int array array array option;
  merged_weights : int array array option; (* .(d).(m) *)
  mutable assignment : int array option;
  (* stage two of the static path, built once per assignment: per member,
     the data assigned to it and a session over their subset trace *)
  mutable stage_two : (int array * Sched.Problem.t) option array option;
}

let group t = t.group
let trace t = t.trace
let policy t = t.policy
let jobs t = t.jobs
let kernel t = t.kernel
let fault t = t.fault
let n_data t = Reftrace.Data_space.size (Reftrace.Trace.space t.trace)
let n_windows t = Reftrace.Trace.n_windows t.trace
let n_members t = Array_group.n_members t.group
let sub t m = t.subs.(m)

(* One pass per window: split the global window into per-member local
   windows (kinds preserved) and accumulate the per-member weight rows. *)
let project group trace =
  let n_members = Array_group.n_members group in
  let space = Reftrace.Trace.space trace in
  let nd = Reftrace.Data_space.size space in
  let windows = Reftrace.Trace.windows trace in
  let weights =
    List.map (fun _ -> Array.make_matrix nd n_members 0) windows
  in
  let projections =
    List.map2
      (fun win wrow ->
        let locals =
          Array.init n_members (fun _ -> Reftrace.Window.create ~n_data:nd)
        in
        for d = 0 to nd - 1 do
          List.iter
            (fun (kind, profile) ->
              List.iter
                (fun (proc, count) ->
                  let m, local = Array_group.local_of_rank group proc in
                  Reftrace.Window.add ~kind locals.(m) ~data:d ~proc:local
                    ~count;
                  wrow.(d).(m) <- wrow.(d).(m) + count)
                profile)
            [
              (Reftrace.Window.Read, Reftrace.Window.read_profile win d);
              (Reftrace.Window.Write, Reftrace.Window.write_profile win d);
            ]
        done;
        locals)
      windows weights
  in
  let member_traces =
    Array.init n_members (fun m ->
        Reftrace.Trace.create space
          (List.map (fun locals -> locals.(m)) projections))
  in
  (member_traces, Array.of_list (List.map Fun.id weights))

let make_subs ~policy ~jobs ~kernel ~fault group member_traces =
  Array.init (Array_group.n_members group) (fun m ->
      let mesh = Array_group.member group m in
      let mf = Group_fault.member_fault fault group m in
      (* a member whose every rank is node-dead is handled like a dead
         array — excluded by the group-tier masks — so its session is
         opened healthy rather than tripping Problem.create's
         all-dead check *)
      let mf =
        if Pim.Fault.alive_count mf mesh = 0 then Pim.Fault.none else mf
      in
      Sched.Problem.create ~policy ~jobs ~kernel ~fault:mf mesh
        member_traces.(m))

let create ?(policy = Sched.Problem.Unbounded) ?(jobs = 1)
    ?(kernel = `Separable) ?(fault = Group_fault.none) group trace =
  Array_group.validate_trace group trace;
  Group_fault.validate fault group;
  if !Obs.enabled then Obs.Metrics.incr "multi.problems";
  if Array_group.n_members group = 1 then
    {
      group;
      trace;
      policy;
      jobs;
      kernel;
      fault;
      subs = make_subs ~policy ~jobs ~kernel ~fault group [| trace |];
      weights = None;
      merged_weights = None;
      assignment = None;
      stage_two = None;
    }
  else begin
    let member_traces, weights = project group trace in
    let nd = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
    let nm = Array_group.n_members group in
    let merged = Array.make_matrix nd nm 0 in
    Array.iter
      (fun wrow ->
        for d = 0 to nd - 1 do
          for m = 0 to nm - 1 do
            merged.(d).(m) <- merged.(d).(m) + wrow.(d).(m)
          done
        done)
      weights;
    {
      group;
      trace;
      policy;
      jobs;
      kernel;
      fault;
      subs = make_subs ~policy ~jobs ~kernel ~fault group member_traces;
      weights = Some weights;
      merged_weights = Some merged;
      assignment = None;
      stage_two = None;
    }
  end

let with_fault t fault =
  Group_fault.validate fault t.group;
  let subs =
    Array.init (n_members t) (fun m ->
        let mesh = Array_group.member t.group m in
        let mf = Group_fault.member_fault fault t.group m in
        let mf =
          if Pim.Fault.alive_count mf mesh = 0 then Pim.Fault.none else mf
        in
        (* patch, not rebuild: member sessions keep every slab row the
           member's fault change did not reprice (a fully-dead member
           substitutes Fault.none, a non-monotone change — the patch's
           carry rules gate on monotonicity, so that stays correct) *)
        Sched.Problem.with_fault_patch t.subs.(m) mf)
  in
  { t with fault; subs; assignment = None; stage_two = None }

let member_weight t ~window ~data ~member =
  match t.weights with
  | None -> Reftrace.Window.references (Reftrace.Trace.window t.trace window) data
  | Some w -> w.(window).(data).(member)

let cross_of_row t row member =
  let acc = ref 0 in
  for j = 0 to n_members t - 1 do
    if j <> member && row.(j) > 0 then
      acc := !acc + (row.(j) * Array_group.move_cost t.group j member)
  done;
  !acc

let cross_cost t ~window ~data ~member =
  match t.weights with
  | None -> 0
  | Some w -> cross_of_row t w.(window).(data) member

let merged_cross_cost t ~data ~member =
  match t.merged_weights with
  | None -> 0
  | Some m -> cross_of_row t m.(data) member

let rank_alive t g = Group_fault.rank_alive t.fault t.group g
let alive_members t = Group_fault.alive_members t.fault t.group

let degenerate t =
  if n_members t = 1 && Group_fault.dead_arrays t.fault = [] then
    Some t.subs.(0)
  else None

let has_member_link_faults t =
  Pim.Fault.has_link_faults (Group_fault.node_fault t.fault)

let max_arena_bytes t =
  Array.fold_left (fun acc s -> acc + Sched.Problem.max_arena_bytes s) 0 t.subs

let held_bytes t =
  let arenas acc = function
    | Some (_, p) -> acc + Sched.Problem.max_arena_bytes p
    | None -> acc
  in
  let stage_two =
    match t.stage_two with
    | None -> 0
    | Some s -> Array.fold_left arenas 0 s
  in
  (* a .(d).(m) table is a block of nd pointers to blocks of nm ints *)
  let table = n_data t + 1 + (n_data t * (n_members t + 1)) in
  let weight_words =
    match t.weights with
    | None -> 0
    | Some _ -> n_windows t + 1 + ((n_windows t + 1) * table)
  in
  max_arena_bytes t + stage_two + (weight_words * (Sys.word_size / 8))

let member_alive_ranks t m =
  let b = Array_group.base t.group m in
  let sz = Pim.Mesh.size (Array_group.member t.group m) in
  let n = ref 0 in
  for g = b to b + sz - 1 do
    if rank_alive t g then incr n
  done;
  !n

let aggregate_capacity t =
  match t.policy with
  | Sched.Problem.Unbounded -> max_int
  | Sched.Problem.Bounded c ->
      List.fold_left (fun acc m -> acc + (c * member_alive_ranks t m)) 0
        (alive_members t)

let check_feasible t ~who =
  match t.policy with
  | Sched.Problem.Unbounded -> ()
  | Sched.Problem.Bounded c ->
      let room = aggregate_capacity t in
      if n_data t > room then
        invalid_arg
          (Printf.sprintf
             "%s: %d data cannot fit the group's surviving capacity %d \
              (capacity %d per processor)"
             who (n_data t) room c)

(* Stage one of the two-level scheduler: heaviest-first greedy over the
   per-member score [merged cross cost + member-local cost at the
   member's best merged center] — exact for static placements under the
   flat metric (DESIGN.md §12). *)
let assignment t =
  match t.assignment with
  | Some a -> a
  | None ->
      check_feasible t ~who:"Group_problem.assignment";
      let nd = n_data t in
      let merged = Reftrace.Trace.merged t.trace in
      let order =
        List.sort
          (fun a b ->
            let ra = Reftrace.Window.references merged a
            and rb = Reftrace.Window.references merged b in
            if ra <> rb then compare rb ra else compare a b)
          (List.init nd Fun.id)
      in
      let alive = alive_members t in
      let room =
        Array.init (n_members t) (fun m ->
            match t.policy with
            | Sched.Problem.Unbounded -> max_int
            | Sched.Problem.Bounded c -> c * member_alive_ranks t m)
      in
      let asn = Array.make nd (-1) in
      List.iter
        (fun d ->
          let best = ref (-1) and best_score = ref max_int in
          List.iter
            (fun m ->
              if room.(m) > 0 then begin
                let s = sub t m in
                let center = Sched.Problem.merged_optimal_center s ~data:d in
                let local =
                  (Sched.Problem.merged_vector s ~data:d).(center)
                in
                let score = merged_cross_cost t ~data:d ~member:m + local in
                if score < !best_score then begin
                  best_score := score;
                  best := m
                end
              end)
            alive;
          if !best < 0 then
            invalid_arg
              "Group_problem.assignment: no member has room left (capacity \
               exhausted)";
          asn.(d) <- !best;
          if room.(!best) <> max_int then room.(!best) <- room.(!best) - 1)
        order;
      if !Obs.enabled then begin
        Obs.Metrics.incr "multi.assignments";
        Obs.Metrics.add "multi.assigned_data" nd
      end;
      t.assignment <- Some asn;
      asn

(* Member [m]'s stage-two session over the data [ids] assigned to it.
   The subset data space keeps each datum's volume (one 1x1 array per
   datum, named by its global description — unique). *)
let subset_problem t m ids =
  let sub = t.subs.(m) in
  let member_trace = Sched.Problem.trace sub in
  let space = Reftrace.Trace.space member_trace in
  let k = Array.length ids in
  let descs =
    Array.map
      (fun d ->
        Reftrace.Data_space.array_desc
          ~volume:(Reftrace.Data_space.volume_of space d)
          (Reftrace.Data_space.describe space d)
          ~rows:1 ~cols:1)
      ids
  in
  let sub_space =
    Reftrace.Data_space.create descs.(0) (List.tl (Array.to_list descs))
  in
  let windows =
    List.map
      (fun win ->
        let out = Reftrace.Window.create ~n_data:k in
        Array.iteri
          (fun idx d ->
            List.iter
              (fun (proc, count) ->
                Reftrace.Window.add ~kind:Reftrace.Window.Read out ~data:idx
                  ~proc ~count)
              (Reftrace.Window.read_profile win d);
            List.iter
              (fun (proc, count) ->
                Reftrace.Window.add ~kind:Reftrace.Window.Write out ~data:idx
                  ~proc ~count)
              (Reftrace.Window.write_profile win d))
          ids;
        out)
      (Reftrace.Trace.windows member_trace)
  in
  let problem =
    Sched.Problem.create ~policy:t.policy ~jobs:t.jobs ~kernel:t.kernel
      ~fault:(Sched.Problem.fault sub)
      (Array_group.member t.group m)
      (Reftrace.Trace.create sub_space windows)
  in
  (* inherit the member's deadline, armed or not *)
  Sched.Problem.set_cancel problem (Sched.Problem.cancel_token sub);
  problem

let stage_two t =
  match t.stage_two with
  | Some s -> s
  | None ->
      let asn = assignment t in
      let s =
        Array.init (n_members t) (fun m ->
            let ids =
              Array.of_list
                (List.filter
                   (fun d -> asn.(d) = m)
                   (List.init (Array.length asn) Fun.id))
            in
            if Array.length ids = 0 then None
            else Some (ids, subset_problem t m ids))
      in
      t.stage_two <- Some s;
      s

let set_cancel t cancel =
  Array.iter (fun s -> Sched.Problem.set_cancel s cancel) t.subs;
  match t.stage_two with
  | None -> ()
  | Some s ->
      Array.iter
        (function
          | Some (_, p) -> Sched.Problem.set_cancel p cancel | None -> ())
        s
