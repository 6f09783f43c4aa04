type capacity_policy = Context.capacity_policy = Unbounded | Bounded of int

(* Cost charged for serving across a disconnected rank pair (link faults
   can split the mesh). Large enough that any connected alternative wins,
   small enough that profile-weighted sums stay far from overflow. As a
   BFS-table entry it is the largest single DP step; the layered DP
   checks that it packs beside the layer's ranks (DESIGN.md §16,
   "Packed cells": up to 2^19 ranks per layer). *)
let unreachable_cost = 1 lsl 40

type row = Pathgraph.Layered.row =
  | Full of int array
  | Axis_sum of int array * int array

(* A [Problem.t] is one request-scoped session over an immutable shared
   [Context.t]: the context carries the mesh, trace and windows (never
   written after creation, so any number of sessions may
   share it from any domain); the session carries the fault overlay and
   every mutable cache — cost rows, marginals and centers. [policy] and
   [jobs] are per-session so [with_policy]/[with_jobs] can override the
   context defaults while still sharing cache rows. *)
type t = {
  ctx : Context.t;
  policy : capacity_policy;
  jobs : int;
  fault : Pim.Fault.t;
  alive : Bytes.t; (* admit row: byte rank <> '\000' iff rank is alive *)
  n_alive : int;
  (* The session's metric, as the layered DP relaxes it: the mesh's
     [Axes], or, iff the fault kills links (node faults keep routers, so
     distances only change under link faults), a [Table] of BFS
     distances built eagerly from [Fault.Paths], disconnected pairs holding
     [unreachable_cost]. A [Table] switches the session off the separable
     path: rows are built [Full] from it instead of [Axis_sum] from the
     marginals. *)
  relax : Pathgraph.Layered.relaxation;
  (* The row every window that does not reference a datum gets: all
     zeros under any fault, in the session's row form. It is never
     cached per cell, so a patch that changes the row form only swaps
     this field. *)
  zero : row;
  (* Per-(datum, window) caches, indexed [.(data).(window)]; window
     [n_windows] is the merged window. Each cell has a single writer in
     any parallel phase (see the .mli thread-safety contract). Rows are
     immutable once cached. *)
  margs : (int array * int array) option array array;
  rows : row option array array;
  (* [stale.(data)] byte [window] is '\001' while the cell's row has been
     invalidated and not rebuilt ([problem.rows_invalidated] counts each
     clean-to-stale step, [problem.rows_refilled] each rebuild). *)
  stale : Bytes.t array;
  opts : int array array; (* optimal centers; -1 = not computed yet *)
  mutable order : int list option; (* serial phases only *)
  (* Cooperative cancellation: polled at the cache funnels below.
     [Cancel.none] (the default) makes every poll a pointer compare; an
     armed token adds one monotonic-clock read per cell or datum of work.
     Written only from the serial admission path ([set_cancel]) before
     the solve starts; parallel tasks just read it. *)
  mutable cancel : Cancel.t;
}

let words = function
  | Full v -> Array.length v
  | Axis_sum (cx, cy) -> Array.length cx + Array.length cy

(* Every row a session allocates is charged here, by its size. *)
let charge row =
  if !Obs.enabled then Obs.Metrics.add "problem.arena_bytes" (8 * words row)

let zero_row ctx relax =
  let z =
    match relax with
    | Pathgraph.Layered.Table _ -> Full (Array.make ctx.Context.size 0)
    | Axes { cols; rows; _ } -> Axis_sum (Array.make cols 0, Array.make rows 0)
  in
  charge z;
  z

let relaxation_of mesh size fault =
  if not (Pim.Fault.has_link_faults fault) then
    Pathgraph.Layered.axes ~cols:(Pim.Mesh.cols mesh) ~rows:(Pim.Mesh.rows mesh)
      ~wrap:(Pim.Mesh.wraps mesh)
  else begin
    if !Obs.enabled then Obs.Metrics.incr "cost.fault_tables";
    let paths = Pim.Fault.Paths.create mesh fault in
    Pathgraph.Layered.table
      (Array.init size (fun src ->
           Array.init size (fun dst ->
               match Pim.Fault.Paths.distance paths ~src ~dst with
               | Some d -> d
               | None -> unreachable_cost)))
  end

let separable relax =
  match relax with Pathgraph.Layered.Axes _ -> true | Table _ -> false

(* The alive mask as an admit row ({!Pathgraph.Layered.solve}'s form). *)
let alive_row size fault =
  let row = Bytes.make size '\001' in
  List.iter (fun r -> Bytes.set row r '\000') (Pim.Fault.dead_nodes fault);
  row

let of_context ?policy ?jobs ?(fault = Pim.Fault.none) ctx =
  let policy = match policy with Some p -> p | None -> ctx.Context.policy in
  let jobs = match jobs with Some j -> j | None -> ctx.Context.jobs in
  (match policy with
  | Bounded c when c < 0 ->
      invalid_arg "Problem.of_context: negative capacity"
  | Bounded _ | Unbounded -> ());
  if jobs < 1 then invalid_arg "Problem.of_context: jobs must be >= 1";
  let mesh = ctx.Context.mesh in
  Pim.Fault.validate fault mesh;
  let size = ctx.Context.size in
  let alive = alive_row size fault in
  let n_alive = Pim.Fault.alive_count fault mesh in
  if n_alive = 0 then
    invalid_arg "Problem.create: every processor is dead";
  let relax = relaxation_of mesh size fault in
  let n_data = Context.n_data ctx in
  (* one cache column per window, plus the merged window's *)
  let cells = Array.length ctx.Context.windows + 1 in
  {
    ctx;
    policy;
    jobs;
    fault;
    alive;
    n_alive;
    relax;
    zero = zero_row ctx relax;
    margs = Array.init n_data (fun _ -> Array.make cells None);
    rows = Array.init n_data (fun _ -> Array.make cells None);
    stale = Array.init n_data (fun _ -> Bytes.make cells '\000');
    opts = Array.init n_data (fun _ -> Array.make cells (-1));
    order = None;
    cancel = Cancel.none;
  }

let create ?(policy = Unbounded) ?(jobs = 1) ?(fault = Pim.Fault.none) mesh
    trace =
  (match policy with
  | Bounded c when c < 0 ->
      invalid_arg "Problem.create: negative capacity"
  | Bounded _ | Unbounded -> ());
  if jobs < 1 then invalid_arg "Problem.create: jobs must be >= 1";
  of_context ~fault (Context.create ~policy ~jobs mesh trace)

let headroom_policy ~headroom ~processors trace =
  if headroom = 0 then Unbounded
  else
    Bounded
      (Pim.Memory.capacity_for
         ~data_count:(Reftrace.Data_space.size (Reftrace.Trace.space trace))
         ~mesh:(Pim.Mesh.create ~rows:1 ~cols:processors)
         ~headroom)

let context t = t.ctx
let mesh t = t.ctx.Context.mesh
let trace t = t.ctx.Context.trace
let policy t = t.policy
let capacity t = match t.policy with Unbounded -> None | Bounded c -> Some c
let jobs t = t.jobs
let fault t = t.fault
let rank_alive t rank = Bytes.get t.alive rank <> '\000'
let alive_count t = t.n_alive
let max_arena_bytes t = t.ctx.Context.max_arena_bytes

let with_jobs t jobs =
  if jobs < 1 then invalid_arg "Problem.with_jobs: jobs must be >= 1";
  { t with jobs }

let with_policy t policy =
  (match policy with
  | Bounded c when c < 0 ->
      invalid_arg "Problem.with_policy: negative capacity"
  | Bounded _ | Unbounded -> ());
  { t with policy }

let space t = Context.space t.ctx
let n_data t = Context.n_data t.ctx
let n_windows t = Array.length t.ctx.Context.windows

let window t i =
  let windows = t.ctx.Context.windows in
  if i < 0 || i >= Array.length windows then
    invalid_arg (Printf.sprintf "Problem.window: index %d out of range" i);
  windows.(i)

let merged t = t.ctx.Context.merged

let metric mesh relax a b =
  match relax with
  | Pathgraph.Layered.Table { dist; _ } -> dist.(a).(b)
  | Axes _ -> Pim.Mesh.distance mesh a b

let distance t a b = metric t.ctx.Context.mesh t.relax a b

let relaxation t = t.relax

let set_cancel t c = t.cancel <- c
let cancel_token t = t.cancel

(* The cooperative poll: free against [Cancel.none] (one physical-equality
   branch inside [Cancel.expired] short-circuits to the float compare),
   one clock read against an armed token. Every cache funnel below polls,
   hit or miss, so a solve over a warm session unwinds as promptly as
   over a cold one. *)
let poll t = Cancel.check t.cancel

(* Cache accounting (the merged window is one more column, so its
   lookups fold into the same names): totals are per-(datum, window)
   and each cell has a single writer, so hit/miss sums do not depend on
   the [jobs] setting. *)
let hit name = if !Obs.enabled then Obs.Metrics.incr name

(* Window [n_windows] is the merged window. *)
let window_at t w =
  if w = n_windows t then t.ctx.Context.merged else t.ctx.Context.windows.(w)

(* [keep] stores a miss in the cache. A row build passes [false]: the
   row holds everything later reads need, and keeping the marginals
   beside every built row would double the heap a warm session holds. *)
let lookup_marginals t ~window ~data ~keep =
  poll t;
  match t.margs.(data).(window) with
  | Some m ->
      hit "problem.marginals_hit";
      m
  | None ->
      hit "problem.marginals_miss";
      let m =
        Reftrace.Window.marginals (window_at t window) ~data
          ~cols:(Pim.Mesh.cols t.ctx.Context.mesh)
          ~rows:(Pim.Mesh.rows t.ctx.Context.mesh)
      in
      if keep then t.margs.(data).(window) <- Some m;
      m

let marginals t ~window ~data = lookup_marginals t ~window ~data ~keep:true

(* Link faults break separability, so such a row is built [Full] off the
   BFS distance table, the profile walked once per center — the Obs
   counter records every row built this way. *)
let table_row t dist w ~data =
  hit "cost.fault_downgrades";
  let profile = Reftrace.Window.profile w data in
  Full
    (Array.init t.ctx.Context.size (fun center ->
         let row = dist.(center) in
         List.fold_left
           (fun acc (proc, count) -> acc + (count * row.(proc)))
           0 profile))

let build_row t ~window ~data =
  if Bytes.get t.stale.(data) window <> '\000' then begin
    hit "problem.rows_refilled";
    Bytes.set t.stale.(data) window '\000'
  end;
  let r =
    match t.relax with
    | Pathgraph.Layered.Table { dist; _ } ->
        table_row t dist (window_at t window) ~data
    | Axes { wrap; _ } ->
        hit "cost.separable_builds";
        let mx, my = lookup_marginals t ~window ~data ~keep:false in
        Axis_sum (Cost.axis_cost ~wrap mx, Cost.axis_cost ~wrap my)
  in
  charge r;
  r

let row t ~window ~data =
  poll t;
  match t.rows.(data).(window) with
  | Some r ->
      hit "problem.vector_hit";
      r
  | None ->
      if Reftrace.Window.references (window_at t window) data = 0 then begin
        hit "problem.vector_hit";
        t.zero
      end
      else begin
        hit "problem.vector_miss";
        let r = build_row t ~window ~data in
        t.rows.(data).(window) <- Some r;
        r
      end

let cost_entry t ~window ~data center =
  Pathgraph.Layered.entry (row t ~window ~data) center

let cost_vector t ~window ~data =
  Pathgraph.Layered.to_array (row t ~window ~data)

let layer_rows t ~data =
  Array.init (n_windows t) (fun w -> row t ~window:w ~data)

let faulty t = not (Pim.Fault.is_none t.fault)

(* Definition 4 off the cached row: on a healthy session the two axis
   minima of the axis sum, in the same order as the full-vector
   ascending argmin (counter [cost.argmin_fast]). Any fault forces the
   ascending scan over alive ranks — dead ranks cannot host a center
   (ties still break to the lowest alive rank). *)
let optimal_center t ~window ~data =
  poll t;
  let cached = t.opts.(data).(window) in
  if cached >= 0 then cached
  else begin
    let r = row t ~window ~data in
    let c =
      if faulty t then begin
        hit "cost.argmin_masked";
        Pathgraph.Layered.argmin ~admit:t.alive r
      end
      else begin
        hit "cost.argmin_fast";
        Pathgraph.Layered.argmin r
      end
    in
    t.opts.(data).(window) <- c;
    c
  end

let by_total_references t =
  match t.order with
  | Some l -> l
  | None ->
      (* Ordering.by_total_references against the cached merged window *)
      let sp = space t in
      let merged = t.ctx.Context.merged in
      let l =
        List.init (n_data t) Fun.id
        |> List.sort (fun a b ->
               let weight d =
                 Reftrace.Data_space.volume_of sp d
                 * Reftrace.Window.references merged d
               in
               let c = Int.compare (weight b) (weight a) in
               if c <> 0 then c else Int.compare a b)
      in
      t.order <- Some l;
      l

let path_cost t ~data pairs =
  if pairs = [] then invalid_arg "Problem.path_cost: empty window list";
  let rec go prev acc = function
    | [] -> acc
    | (w, center) :: rest ->
        let refc = cost_entry t ~window:w ~data center in
        let move =
          match prev with None -> 0 | Some p -> distance t p center
        in
        go (Some center) (acc + refc + move) rest
  in
  go None 0 pairs

let trajectory_cost t ~data centers =
  let n = n_windows t in
  if Array.length centers <> n then
    invalid_arg
      (Printf.sprintf
         "Problem.trajectory_cost: %d centers for %d windows"
         (Array.length centers) n);
  let cost = ref (cost_entry t ~window:0 ~data centers.(0)) in
  for w = 1 to n - 1 do
    cost :=
      !cost
      + distance t centers.(w - 1) centers.(w)
      + cost_entry t ~window:w ~data centers.(w)
  done;
  !cost

(* Window-major: each pool task builds one window's column of rows
   across all data — one writer per cell, so no pre-pass is needed.
   [cost.batch_fills] counts the window tasks that built an axis-sum
   row. *)
let prefetch_all t =
  Obs.Span.with_ ~name:"problem.prefetch_all" @@ fun () ->
  Engine.iter ~jobs:t.jobs (n_windows t) (fun window ->
      let w = t.ctx.Context.windows.(window) in
      let built = ref false in
      for data = 0 to n_data t - 1 do
        if
          Option.is_none t.rows.(data).(window)
          && Reftrace.Window.references w data > 0
        then built := true;
        ignore (row t ~window ~data)
      done;
      if !built && separable t.relax then hit "cost.batch_fills")

(* ------------------------------------------------------------------ *)
(* Incremental invalidation and fault patching                         *)
(* ------------------------------------------------------------------ *)

(* Drop the cached row of a cell whose costs may have changed, counting
   its clean-to-stale step. *)
let mark_stale stale rows ~data ~window =
  rows.(data).(window) <- None;
  if Bytes.get stale.(data) window = '\000' then begin
    Bytes.set stale.(data) window '\001';
    hit "problem.rows_invalidated"
  end

let invalidate t ~window =
  if window < 0 || window >= n_windows t then
    invalid_arg
      (Printf.sprintf "Problem.invalidate: window %d out of range" window);
  let w = t.ctx.Context.windows.(window) in
  for data = 0 to n_data t - 1 do
    (* [Reftrace.Window.add] only ever adds references, so a datum with
       zero references now was untouched by the edit and keeps its whole
       column *)
    if Reftrace.Window.references w data > 0 then begin
      t.margs.(data).(window) <- None;
      t.opts.(data).(window) <- -1;
      mark_stale t.stale t.rows ~data ~window
    end
  done

(* monotone growth: every element of ascending [a] appears in ascending
   [b] — the condition under which cached argmins survive a fault change
   (dead ranks only accumulate). *)
let rec subset_asc a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
      if x = y then subset_asc a' b'
      else if y < x then subset_asc a b'
      else false

(* [dead_nodes]/[dead_links] are canonical (ascending), so structural
   equality decides fault equality. *)
let same_fault a b =
  Pim.Fault.dead_nodes a = Pim.Fault.dead_nodes b
  && Pim.Fault.dead_links a = Pim.Fault.dead_links b

let with_fault_patch t fault =
  if same_fault fault t.fault then t
  else begin
    let mesh = t.ctx.Context.mesh in
    Pim.Fault.validate fault mesh;
    let size = t.ctx.Context.size in
    let alive = alive_row size fault in
    let is_alive r = Bytes.get alive r <> '\000' in
    let n_alive = Pim.Fault.alive_count fault mesh in
    if n_alive = 0 then
      invalid_arg "Problem.with_fault_patch: every processor is dead";
    let relax =
      if Pim.Fault.dead_links fault = Pim.Fault.dead_links t.fault then
        t.relax (* same dead-link set: identical distances *)
      else relaxation_of mesh size fault
    in
    (* Dirty processors: ranks whose distance column changed between the
       two models. Node faults keep routers, so when the dead-link set is
       unchanged the relaxation is physically shared and nothing is dirty —
       a pure node-fault patch reuses every row. *)
    let dirty =
      if relax == t.relax then None
      else begin
        let old_d = metric mesh t.relax and new_d = metric mesh relax in
        let d = Array.make size false in
        let any = ref false in
        for p = 0 to size - 1 do
          let c = ref 0 in
          while !c < size && not d.(p) do
            if old_d !c p <> new_d !c p then begin
              d.(p) <- true;
              any := true
            end;
            incr c
          done
        done;
        if !any then Some d else None
      end
    in
    (* a row is dirty iff the window's profile of the datum touches a
       dirty rank — only those rows' cost entries can differ *)
    let row_dirty w data =
      match dirty with
      | None -> false
      | Some d ->
          let f = ref false in
          Reftrace.Window.iter_profile w data (fun ~proc ~count:_ ->
              if d.(proc) then f := true);
          !f
    in
    let monotone =
      subset_asc (Pim.Fault.dead_nodes t.fault) (Pim.Fault.dead_nodes fault)
    in
    (* Rows are immutable, so a clean one is shared as it is — except
       that a [Table] session cannot read an axis sum, so entering link
       faults spells carried axis sums out in full. *)
    let carry r =
      match r with
      | Axis_sum _ when not (separable relax) ->
          let full = Full (Pathgraph.Layered.to_array r) in
          charge full;
          full
      | Axis_sum _ | Full _ -> r
    in
    let zero =
      if separable relax = separable t.relax then t.zero
      else zero_row t.ctx relax
    in
    let nd = n_data t in
    let rows = Array.map Array.copy t.rows in
    let stale = Array.map Bytes.copy t.stale in
    let opts = Array.map Array.copy t.opts in
    for data = 0 to nd - 1 do
      for w = 0 to n_windows t do
        if row_dirty (window_at t w) data then begin
          mark_stale stale rows ~data ~window:w;
          opts.(data).(w) <- -1
        end
        else begin
          rows.(data).(w) <- Option.map carry rows.(data).(w);
          (* clean cell: the cached argmin survives iff dead ranks only
             grew (subset argmin, lowest-rank ties preserved) and the
             center itself is still alive *)
          let o = opts.(data).(w) in
          if o >= 0 && not (monotone && is_alive o) then
            opts.(data).(w) <- -1
        end
      done
    done;
    {
      t with
      fault;
      alive;
      n_alive;
      relax;
      zero;
      rows;
      stale;
      opts;
    }
  end

(* Per datum, [f] on every window that references it — or on the merged
   window when none does. *)
let prefetch_per_datum t ~name f =
  Obs.Span.with_ ~name @@ fun () ->
  let windows = t.ctx.Context.windows in
  Engine.iter ~jobs:t.jobs (n_data t) (fun data ->
      let referenced = ref false in
      Array.iteri
        (fun w window ->
          if Reftrace.Window.references window data > 0 then begin
            referenced := true;
            f t ~window:w ~data
          end)
        windows;
      if not !referenced then f t ~window:(Array.length windows) ~data)

let prefetch_referenced t =
  prefetch_per_datum t ~name:"problem.prefetch_referenced"
    (fun t ~window ~data -> ignore (row t ~window ~data))

let prefetch_centers t =
  prefetch_per_datum t ~name:"problem.prefetch_centers"
    (fun t ~window ~data -> ignore (optimal_center t ~window ~data))

let prefetch_merged t =
  Obs.Span.with_ ~name:"problem.prefetch_merged" @@ fun () ->
  Engine.iter ~jobs:t.jobs (n_data t) (fun data ->
      ignore (row t ~window:(n_windows t) ~data))

let check_feasible t ~who =
  match t.policy with
  | Unbounded -> ()
  | Bounded c ->
      let n = n_data t in
      (* on a healthy array n_alive = size, so the message is unchanged *)
      if c * t.n_alive < n then
        invalid_arg
          (Printf.sprintf
             "%s: %d data cannot fit in %d processors of capacity %d" who n
             t.n_alive c)

let fresh_memory t =
  let m =
    match t.policy with
    | Unbounded -> Pim.Memory.unbounded t.ctx.Context.mesh
    | Bounded c -> Pim.Memory.create t.ctx.Context.mesh ~capacity:c
  in
  if Pim.Fault.has_node_faults t.fault then
    List.iter (Pim.Memory.ban m) (Pim.Fault.dead_nodes t.fault);
  m

let alive_admit t =
  if Pim.Fault.has_node_faults t.fault then Some (fun _ -> t.alive) else None

let solve_datum ?admit t ~data =
  poll t;
  (* Compose the caller's rows with the alive row; a healthy session
     hands the caller's rows (or none) straight through. *)
  let admit =
    match (admit, alive_admit t) with
    | None, a | a, None -> a
    | Some f, Some _ ->
        let both = Bytes.create t.ctx.Context.size in
        Some
          (fun layer ->
            let row = f layer in
            for r = 0 to Bytes.length both - 1 do
              Bytes.set both r
                (if Bytes.get row r = '\000' || Bytes.get t.alive r = '\000'
                 then '\000'
                 else '\001')
            done;
            both)
  in
  Pathgraph.Layered.solve ?admit ~n_layers:(n_windows t)
    [| { relaxation = t.relax; rows = layer_rows t ~data } |]
