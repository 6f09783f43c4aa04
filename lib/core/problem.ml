type capacity_policy = Context.capacity_policy = Unbounded | Bounded of int

(* Cost charged for serving across a disconnected rank pair (link faults
   can split the mesh). Large enough that any connected alternative wins,
   small enough that profile-weighted sums stay far from overflow. *)
let unreachable_cost = 1 lsl 40

(* A [Problem.t] is one request-scoped session over an immutable shared
   [Context.t]: the context carries the mesh, trace, windows and per-axis
   tables (never written after creation, so any number of sessions may
   share it from any domain); the session carries the fault overlay and
   every mutable cache — the cost arenas, marginals, centers, candidate
   lists. [policy] and [jobs] are per-session so [with_policy]/[with_jobs]
   can override the context defaults while still sharing cache rows. *)
type t = {
  ctx : Context.t;
  policy : capacity_policy;
  jobs : int;
  fault : Pim.Fault.t;
  alive : bool array; (* alive.(rank) — dense mask of fault's dead nodes *)
  n_alive : int;
  (* Fault-aware full distance table, present iff the fault kills links
     (node faults keep routers, so distances only change under link
     faults). Built eagerly per session via the BFS oracle; disconnected
     pairs hold [unreachable_cost]. Its presence switches the session off
     the separable path: arena rows fill from this table instead of the
     marginals, and the layered DP relaxes over it ([relaxation]). *)
  fault_dist : int array array option;
  (* Caches below are rows-per-datum so parallel fills have one writer per
     row (see the .mli thread-safety contract). *)
  margs : (int array * int array) option array array; (* margs.(data).(window) *)
  merged_margs : (int array * int array) option array;
  (* Cost arena: one flat compact buffer per datum. Slot 0 (the first
     [size] entries) is a reserved all-zero row; every window that
     references the datum gets its own slot, assigned in window order, and
     every window that does not points at slot 0 — such a row is the
     all-zero vector under every fault, so it is never written and is
     shared rather than materialized per window. The slab is a bigarray
     so it can be allocated uninitialized: only the zero row is filled at
     creation, and each referencing slot is written in full on its first
     [fill_row] (reads are gated by [filled]). [row_off.(data).(window)]
     maps a window to its row's start offset (0 for the shared zero row);
     it is [| |] until the slab exists. [filled.(data)] flags which rows
     hold valid entries. *)
  arena : Pathgraph.Layered.buffer option array; (* arena.(data) *)
  row_off : int array array; (* row_off.(data).(window), 0 = zero row *)
  (* Per-row fill state, one byte per window:
       '\000'  clean, never filled
       '\001'  filled, valid
       '\002'  dirty (invalidated), never filled under the old model
       '\003'  dirty (invalidated), holds stale bytes from the old model
     Dirty states only appear through [invalidate] / [with_fault_patch];
     [fill_row] collapses any state back to '\001'. The two dirty states
     are distinguished so a copy-on-write session knows whether a fill is
     a first fill or a refill ([problem.rows_refilled]) — and, crucially,
     so it privatizes a shared slab before writing values the base
     session would disagree with (see [privatize]). *)
  filled : Bytes.t array; (* filled.(data), one byte per window *)
  (* shared.(data): the slab behind [arena.(data)] is aliased from a base
     session ([with_fault_patch]); it may be read freely and written only
     with values the base would also produce (clean rows). Writing a
     dirty row first copies the slab ([privatize]). *)
  shared : bool array;
  (* Cached per-axis optimal centers; -1 = not computed yet. *)
  opts : int array array; (* opts.(data).(window) *)
  merged_opts : int array;
  cands : int list option array array; (* cands.(data).(window) *)
  merged_vectors : int array option array;
  merged_cands : int list option array;
  near : int list option array; (* near.(target): serial phases only *)
  mutable order : int list option; (* serial phases only *)
  (* Cooperative cancellation: polled at the fill/solve funnels below.
     [Cancel.none] (the default) makes every poll a pointer compare; an
     armed token adds one monotonic-clock read per datum-or-row of work.
     Written only from the serial admission path ([set_cancel]) before
     the solve starts; parallel tasks just read it. *)
  mutable cancel : Cancel.t;
}

let build_fault_dist mesh size fault =
  if not (Pim.Fault.has_link_faults fault) then None
  else begin
    if !Obs.enabled then Obs.Metrics.incr "cost.fault_tables";
    let oracle = Pim.Fault.Oracle.create mesh fault in
    Some
      (Array.init size (fun src ->
           Array.init size (fun dst ->
               match Pim.Fault.Oracle.distance oracle ~src ~dst with
               | Some d -> d
               | None -> unreachable_cost)))
  end

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
  let alive = Array.make size true in
  List.iter (fun r -> alive.(r) <- false) (Pim.Fault.dead_nodes fault);
  let n_alive = Pim.Fault.alive_count fault mesh in
  if n_alive = 0 then
    invalid_arg "Problem.create: every processor is dead";
  let fault_dist = build_fault_dist mesh size fault in
  let n_data = Context.n_data ctx in
  let n_windows = Array.length ctx.Context.windows in
  {
    ctx;
    policy;
    jobs;
    fault;
    alive;
    n_alive;
    fault_dist;
    margs = Array.init n_data (fun _ -> Array.make n_windows None);
    merged_margs = Array.make n_data None;
    arena = Array.make n_data None;
    row_off = Array.make n_data [||];
    filled = Array.init n_data (fun _ -> Bytes.make n_windows '\000');
    shared = Array.make n_data false;
    opts = Array.init n_data (fun _ -> Array.make n_windows (-1));
    merged_opts = Array.make n_data (-1);
    cands = Array.init n_data (fun _ -> Array.make n_windows None);
    merged_vectors = Array.make n_data None;
    merged_cands = Array.make n_data None;
    near = Array.make size None;
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

let of_capacity ?capacity ?jobs mesh trace =
  let policy =
    match capacity with None -> Unbounded | Some c -> Bounded c
  in
  create ~policy ?jobs mesh trace

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
let rank_alive t rank = t.alive.(rank)
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

let with_fault t fault =
  if Pim.Fault.is_none fault && Pim.Fault.is_none t.fault then t
  else
    (* fresh session (cost entries, candidate orders and distances all
       depend on the fault) over the *same* shared context — the axis
       tables, windows and merged window carry over untouched *)
    of_context ~policy:t.policy ~jobs:t.jobs ~fault t.ctx

let space t = Context.space t.ctx
let n_data t = Context.n_data t.ctx
let n_windows t = Array.length t.ctx.Context.windows

let window t i =
  let windows = t.ctx.Context.windows in
  if i < 0 || i >= Array.length windows then
    invalid_arg (Printf.sprintf "Problem.window: index %d out of range" i);
  windows.(i)

let merged t = t.ctx.Context.merged

let distance t a b =
  match t.fault_dist with
  | Some d -> d.(a).(b)
  | None -> Context.distance t.ctx a b

(* The one place a session's DP relaxation is decided: link faults break
   the separable metric, so they relax over the BFS table. *)
let relaxation t =
  match t.fault_dist with
  | Some d -> Pathgraph.Layered.Table d
  | None ->
      Pathgraph.Layered.Axes
        { xdist = t.ctx.Context.xdist; ydist = t.ctx.Context.ydist }

let set_cancel t c = t.cancel <- c
let cancel_token t = t.cancel

(* The cooperative poll: free against [Cancel.none] (one physical-equality
   branch inside [Cancel.expired] short-circuits to the float compare),
   one clock read against an armed token. Sits at the per-row / per-datum
   funnels so an expired solve unwinds within one row's work. *)
let poll t = Cancel.check t.cancel

(* Cache accounting (merged-window lookups fold into the same names):
   totals are per-(datum, window) and each row has a single writer, so
   hit/miss sums do not depend on the [jobs] setting. *)
let hit name = if !Obs.enabled then Obs.Metrics.incr name

let compute_marginals t w ~data =
  Reftrace.Window.marginals w ~data
    ~cols:(Pim.Mesh.cols t.ctx.Context.mesh)
    ~rows:(Pim.Mesh.rows t.ctx.Context.mesh)

let marginals t ~window ~data =
  match t.margs.(data).(window) with
  | Some m ->
      hit "problem.marginals_hit";
      m
  | None ->
      hit "problem.marginals_miss";
      let m = compute_marginals t t.ctx.Context.windows.(window) ~data in
      t.margs.(data).(window) <- Some m;
      m

let merged_marginals t ~data =
  match t.merged_margs.(data) with
  | Some m ->
      hit "problem.marginals_hit";
      m
  | None ->
      hit "problem.marginals_miss";
      let m = compute_marginals t t.ctx.Context.merged ~data in
      t.merged_margs.(data) <- Some m;
      m

let ensure_arena t ~data =
  match t.arena.(data) with
  | Some a -> a
  | None ->
      let windows = t.ctx.Context.windows in
      let size = t.ctx.Context.size in
      let n_windows = Array.length windows in
      let off = Array.make n_windows 0 in
      let slots = ref 1 in
      for w = 0 to n_windows - 1 do
        if Reftrace.Window.references windows.(w) data > 0 then begin
          off.(w) <- !slots * size;
          incr slots
        end
      done;
      let len = !slots * size in
      let a = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout len in
      Bigarray.Array1.fill (Bigarray.Array1.sub a 0 size) 0;
      t.row_off.(data) <- off;
      t.arena.(data) <- Some a;
      if !Obs.enabled then
        Obs.Metrics.add "problem.arena_bytes" (8 * len);
      a

(* Link faults break separability, so rows are built off the BFS
   distance table, the profile walked once per center — the Obs counter
   records every row built this way. [set] targets either an arena slab
   or a plain array. *)
let fault_entries t w ~data ~set =
  hit "cost.fault_downgrades";
  let dist =
    match t.fault_dist with Some d -> d | None -> assert false
  in
  let profile = Reftrace.Window.profile w data in
  for center = 0 to t.ctx.Context.size - 1 do
    let row = dist.(center) in
    set center
      (List.fold_left
         (fun acc (proc, count) -> acc + (count * row.(proc)))
         0 profile)
  done

let fill_separable t ~window ~data ~dst ~off =
  hit "cost.separable_builds";
  let mesh = t.ctx.Context.mesh in
  Cost.fill_slab_of_marginals
    ~wrap:(Pim.Mesh.wraps mesh)
    ~cols:(Pim.Mesh.cols mesh)
    ~rows:(Pim.Mesh.rows mesh)
    (marginals t ~window ~data)
    ~dst ~off

(* Copy-on-write: a patched session aliases its base's slabs until it has
   to write a row whose bytes the base would disagree with (any dirty
   state, even never-filled — the base may later fill that row with
   old-model values, which must not leak into this session, nor the
   reverse). Clean rows may be filled in place even while shared: both
   sessions would write identical bytes there. *)
let privatize t ~data =
  (match t.arena.(data) with
  | None -> ()
  | Some a ->
      let len = Bigarray.Array1.dim a in
      let copy = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout len in
      Bigarray.Array1.blit a copy;
      t.arena.(data) <- Some copy;
      if !Obs.enabled then Obs.Metrics.add "problem.arena_bytes" (8 * len));
  t.shared.(data) <- false

let datum_has_dirty t ~data =
  let b = t.filled.(data) in
  let n = Bytes.length b in
  let found = ref false in
  for w = 0 to n - 1 do
    if Bytes.get b w >= '\002' then found := true
  done;
  !found

let fill_row t ~window ~data =
  poll t;
  (match Bytes.get t.filled.(data) window with
  | '\000' | '\001' -> ()
  | st ->
      if st = '\003' then hit "problem.rows_refilled";
      if t.shared.(data) then privatize t ~data);
  let a = ensure_arena t ~data in
  (* zero-reference rows resolve to the shared zero slot — the all-zero
     vector, so no build is charged *)
  let off = t.row_off.(data).(window) in
  if off > 0 then begin
    if t.fault_dist <> None then
      fault_entries t t.ctx.Context.windows.(window) ~data ~set:(fun center v ->
          a.{off + center} <- v)
    else fill_separable t ~window ~data ~dst:a ~off
  end;
  Bytes.set t.filled.(data) window '\001';
  a

let arena_row t ~window ~data =
  if Bytes.get t.filled.(data) window <> '\001' then begin
    hit "problem.vector_miss";
    let a = fill_row t ~window ~data in
    (a, t.row_off.(data).(window))
  end
  else begin
    hit "problem.vector_hit";
    ((match t.arena.(data) with Some a -> a | None -> assert false),
     t.row_off.(data).(window))
  end

let cost_entry t ~window ~data center =
  let a, off = arena_row t ~window ~data in
  a.{off + center}

let cost_vector t ~window ~data =
  let a, off = arena_row t ~window ~data in
  Array.init t.ctx.Context.size (fun i -> a.{off + i})

let vector_from_marginals t m =
  hit "cost.separable_builds";
  let mesh = t.ctx.Context.mesh in
  Cost.vector_of_marginals
    ~wrap:(Pim.Mesh.wraps mesh)
    ~cols:(Pim.Mesh.cols mesh)
    ~rows:(Pim.Mesh.rows mesh)
    m

let merged_vector t ~data =
  match t.merged_vectors.(data) with
  | Some v ->
      hit "problem.vector_hit";
      v
  | None ->
      hit "problem.vector_miss";
      poll t;
      let size = t.ctx.Context.size in
      let v =
        if Reftrace.Window.references t.ctx.Context.merged data = 0 then
          Array.make size 0
        else if t.fault_dist <> None then begin
          let v = Array.make size 0 in
          fault_entries t t.ctx.Context.merged ~data ~set:(fun center c ->
              v.(center) <- c);
          v
        end
        else vector_from_marginals t (merged_marginals t ~data)
      in
      t.merged_vectors.(data) <- Some v;
      v

(* Ascending argmin over alive ranks only — the placement rule once a
   fault kills nodes (ties still break to the lowest alive rank). *)
let masked_argmin t get =
  hit "cost.argmin_masked";
  let best = ref (-1) in
  for i = 0 to t.ctx.Context.size - 1 do
    if t.alive.(i) && (!best < 0 || get i < get !best) then best := i
  done;
  !best

let faulty t = not (Pim.Fault.is_none t.fault)

(* Vector-free fast path (Definition 4): per-axis argmin straight from the
   marginals, in the same order as the full-vector ascending argmin, so
   unbounded schedulers can take this without changing a single
   placement. Any fault forces the masked arena scan instead: dead ranks
   cannot host a center, and under link faults the marginals no longer
   price the row at all. *)
let optimal_center t ~window ~data =
  let cached = t.opts.(data).(window) in
  if cached >= 0 then cached
  else begin
    poll t;
    let mesh = t.ctx.Context.mesh in
    let c =
      if faulty t then begin
        let a, off = arena_row t ~window ~data in
        masked_argmin t (fun i -> a.{off + i})
      end
      else begin
        hit "cost.argmin_fast";
        fst
          (Cost.argmin_of_marginals
             ~wrap:(Pim.Mesh.wraps mesh)
             ~cols:(Pim.Mesh.cols mesh)
             ~rows:(Pim.Mesh.rows mesh)
             (marginals t ~window ~data))
      end
    in
    t.opts.(data).(window) <- c;
    c
  end

let merged_optimal_center t ~data =
  let cached = t.merged_opts.(data) in
  if cached >= 0 then cached
  else begin
    let mesh = t.ctx.Context.mesh in
    let c =
      if faulty t then begin
        let v = merged_vector t ~data in
        masked_argmin t (fun i -> v.(i))
      end
      else begin
        hit "cost.argmin_fast";
        fst
          (Cost.argmin_of_marginals
             ~wrap:(Pim.Mesh.wraps mesh)
             ~cols:(Pim.Mesh.cols mesh)
             ~rows:(Pim.Mesh.rows mesh)
             (merged_marginals t ~data))
      end
    in
    t.merged_opts.(data) <- c;
    c
  end

(* Dead ranks are cut out of every candidate list — the same fallback
   machinery that skips full memories then never proposes them. *)
let alive_only t l =
  if Pim.Fault.has_node_faults t.fault then
    List.filter (fun r -> t.alive.(r)) l
  else l

let candidates t ~window ~data =
  match t.cands.(data).(window) with
  | Some l ->
      hit "problem.candidates_hit";
      l
  | None ->
      hit "problem.candidates_miss";
      poll t;
      let size = t.ctx.Context.size in
      let l =
        if Bytes.get t.filled.(data) window = '\001' then begin
          (* row already materialized: sort straight off the slab *)
          let a, off = arena_row t ~window ~data in
          alive_only t
            (Processor_list.of_costs ~n:size (fun i -> a.{off + i}))
        end
        else if t.fault_dist = None then
          (* fill-skip: the candidate order is a pure function of the axis
             costs, so bounded schedulers that only consume lists
             ([Scds]/[Lomcds]) never force a slab row. Same values, hence
             the same (cost, rank) order, as the materialized row. *)
          if
            Reftrace.Window.references t.ctx.Context.windows.(window) data
            = 0
          then alive_only t (Processor_list.of_costs ~n:size (fun _ -> 0))
          else begin
            hit "cost.separable_builds";
            let mesh = t.ctx.Context.mesh in
            let wrap = Pim.Mesh.wraps mesh in
            let cols = Pim.Mesh.cols mesh in
            let mx, my = marginals t ~window ~data in
            let cx = Cost.axis_cost ~wrap mx
            and cy = Cost.axis_cost ~wrap my in
            alive_only t
              (Processor_list.of_costs ~n:size (fun i ->
                   cx.(i mod cols) + cy.(i / cols)))
          end
        else begin
          let a, off = arena_row t ~window ~data in
          alive_only t
            (Processor_list.of_costs ~n:size (fun i -> a.{off + i}))
        end
      in
      t.cands.(data).(window) <- Some l;
      l

let merged_candidates t ~data =
  match t.merged_cands.(data) with
  | Some l ->
      hit "problem.candidates_hit";
      l
  | None ->
      hit "problem.candidates_miss";
      let l = alive_only t (Processor_list.of_cost_vector (merged_vector t ~data)) in
      t.merged_cands.(data) <- Some l;
      l

let ranks_near t ~target =
  match t.near.(target) with
  | Some l -> l
  | None ->
      let l =
        List.init t.ctx.Context.size Fun.id
        |> alive_only t
        |> List.sort (fun a b ->
               let c =
                 Int.compare (distance t target a) (distance t target b)
               in
               if c <> 0 then c else Int.compare a b)
      in
      t.near.(target) <- Some l;
      l

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

let prefetch_data t ~data =
  for w = 0 to n_windows t - 1 do
    ignore (arena_row t ~window:w ~data)
  done

let layer_slab t ~data =
  prefetch_data t ~data;
  (ensure_arena t ~data, t.row_off.(data))

(* One window's worth of rows, batched: every referencing datum whose row
   is not yet valid goes through one [Cost.fill_window_batch] pass on the
   healthy separable path (axis and prefix-sum scratch shared across the
   whole window), and through the per-row table fills otherwise.
   Zero-reference rows flip straight to valid. When run from the parallel
   fan-out in [prefetch_all], the serial pre-pass there has already
   created every arena and privatized every shared slab holding dirty
   rows, so this task only writes its own window's column (slab row,
   filled byte, margs cell per datum) — one writer per cell. *)
let fill_window_rows t ~window =
  poll t;
  let nd = n_data t in
  let mesh = t.ctx.Context.mesh in
  let batch = ref [] in
  for data = nd - 1 downto 0 do
    let st = Bytes.get t.filled.(data) window in
    if st = '\001' then hit "problem.vector_hit"
    else begin
      hit "problem.vector_miss";
      if st = '\003' then hit "problem.rows_refilled";
      if st >= '\002' && t.shared.(data) then privatize t ~data;
      let a = ensure_arena t ~data in
      let off = t.row_off.(data).(window) in
      if off = 0 then Bytes.set t.filled.(data) window '\001'
      else if t.fault_dist <> None then begin
        fault_entries t t.ctx.Context.windows.(window) ~data
          ~set:(fun center v -> a.{off + center} <- v);
        Bytes.set t.filled.(data) window '\001'
      end
      else batch := (data, (marginals t ~window ~data, (a, off))) :: !batch
    end
  done;
  match !batch with
  | [] -> ()
  | rows ->
      Cost.fill_window_batch
        ~wrap:(Pim.Mesh.wraps mesh)
        ~cols:(Pim.Mesh.cols mesh)
        ~rows:(Pim.Mesh.rows mesh)
        (List.map snd rows);
      List.iter
        (fun (data, _) -> Bytes.set t.filled.(data) window '\001')
        rows

let prefetch_all t =
  Obs.Span.with_ ~name:"problem.prefetch_all" @@ fun () ->
  (* serial pre-pass: every arena exists and no shared slab still holds
     dirty rows before the window tasks fan out — a task must never swap
     a datum-level slab another task is writing into *)
  let nd = n_data t in
  for data = 0 to nd - 1 do
    ignore (ensure_arena t ~data);
    if t.shared.(data) && datum_has_dirty t ~data then privatize t ~data
  done;
  Engine.iter ~jobs:t.jobs (n_windows t) (fun w ->
      fill_window_rows t ~window:w)

(* Window-major view: the slab row of every datum for [window], forced
   valid. [Online] and [Annealing] batch their per-probe delta reads
   through this view instead of paying a [cost_entry] dispatch per probe:
   the entry for (data, rank) is [slabs.(data).{offs.(data) + rank}]. *)
let window_rows t ~window =
  fill_window_rows t ~window;
  let slabs =
    Array.init (n_data t) (fun data ->
        match t.arena.(data) with Some a -> a | None -> assert false)
  in
  let offs =
    Array.init (n_data t) (fun data -> t.row_off.(data).(window))
  in
  (slabs, offs)

(* ------------------------------------------------------------------ *)
(* Incremental invalidation and copy-on-write fault patching           *)
(* ------------------------------------------------------------------ *)

let invalidate t ~window =
  let nw = n_windows t in
  if window < 0 || window >= nw then
    invalid_arg
      (Printf.sprintf "Problem.invalidate: window %d out of range" window);
  let w = t.ctx.Context.windows.(window) in
  let nd = n_data t in
  for data = 0 to nd - 1 do
    (* [Reftrace.Window.add] only ever adds references, so a datum with
       zero references now was untouched by the edit and keeps its whole
       column *)
    if Reftrace.Window.references w data > 0 then begin
      if t.row_off.(data) <> [||] && t.row_off.(data).(window) = 0 then begin
        (* the datum gained its first reference in this window after the
           slab layout was fixed: drop the slab so [ensure_arena] re-maps
           windows to rows (the other windows refill identically) *)
        t.arena.(data) <- None;
        t.row_off.(data) <- [||];
        t.shared.(data) <- false;
        Bytes.fill t.filled.(data) 0 nw '\000'
      end;
      t.margs.(data).(window) <- None;
      t.opts.(data).(window) <- -1;
      t.cands.(data).(window) <- None;
      match Bytes.get t.filled.(data) window with
      | '\000' ->
          Bytes.set t.filled.(data) window '\002';
          hit "problem.rows_invalidated"
      | '\001' ->
          Bytes.set t.filled.(data) window '\003';
          hit "problem.rows_invalidated"
      | _ -> ()
    end
  done

(* monotone growth: every element of ascending [a] appears in ascending
   [b] — the condition under which cached argmins and candidate orders
   survive a fault change (dead ranks only accumulate). *)
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
    let alive = Array.make size true in
    List.iter (fun r -> alive.(r) <- false) (Pim.Fault.dead_nodes fault);
    let n_alive = Pim.Fault.alive_count fault mesh in
    if n_alive = 0 then
      invalid_arg "Problem.with_fault_patch: every processor is dead";
    let fault_dist =
      if Pim.Fault.dead_links fault = Pim.Fault.dead_links t.fault then
        t.fault_dist (* same dead-link set: identical BFS distances *)
      else build_fault_dist mesh size fault
    in
    (* Dirty processors: ranks whose distance column changed between the
       two models. Node faults keep routers, so when the dead-link set is
       unchanged the tables are physically shared and nothing is dirty —
       a pure node-fault patch reuses every slab row. *)
    let dirty =
      if fault_dist == t.fault_dist then None
      else begin
        let old_d =
          match t.fault_dist with
          | Some d -> fun c p -> d.(c).(p)
          | None -> fun c p -> Context.distance t.ctx c p
        in
        let new_d =
          match fault_dist with
          | Some d -> fun c p -> d.(c).(p)
          | None -> fun c p -> Context.distance t.ctx c p
        in
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
    let filter_alive l =
      if Pim.Fault.has_node_faults fault then
        List.filter (fun r -> alive.(r)) l
      else l
    in
    let nd = n_data t in
    let windows = t.ctx.Context.windows in
    let nw = Array.length windows in
    let filled = Array.init nd (fun d -> Bytes.copy t.filled.(d)) in
    let opts = Array.init nd (fun d -> Array.copy t.opts.(d)) in
    let cands = Array.init nd (fun _ -> Array.make nw None) in
    for data = 0 to nd - 1 do
      for w = 0 to nw - 1 do
        if row_dirty windows.(w) data then begin
          (match Bytes.get filled.(data) w with
          | '\000' ->
              Bytes.set filled.(data) w '\002';
              hit "problem.rows_invalidated"
          | '\001' ->
              Bytes.set filled.(data) w '\003';
              hit "problem.rows_invalidated"
          | _ -> ());
          opts.(data).(w) <- -1
        end
        else begin
          (* clean row: the cached argmin survives iff dead ranks only
             grew (subset argmin, lowest-rank ties preserved) and the
             center itself is still alive; a candidate order survives a
             monotone fault filtered down to the new alive set *)
          let o = opts.(data).(w) in
          if o >= 0 && not (monotone && alive.(o)) then
            opts.(data).(w) <- -1;
          if monotone then
            cands.(data).(w) <-
              (match t.cands.(data).(w) with
              | Some l -> Some (filter_alive l)
              | None -> None)
        end
      done
    done;
    let merged = t.ctx.Context.merged in
    let merged_vectors = Array.make nd None in
    let merged_opts = Array.make nd (-1) in
    let merged_cands = Array.make nd None in
    for data = 0 to nd - 1 do
      if not (row_dirty merged data) then begin
        merged_vectors.(data) <- t.merged_vectors.(data);
        let o = t.merged_opts.(data) in
        if o >= 0 && monotone && alive.(o) then merged_opts.(data) <- o;
        if monotone then
          merged_cands.(data) <-
            (match t.merged_cands.(data) with
            | Some l -> Some (filter_alive l)
            | None -> None)
      end
    done;
    let arena = Array.copy t.arena in
    let shared = Array.map (function Some _ -> true | None -> false) arena in
    {
      t with
      fault;
      alive;
      n_alive;
      fault_dist;
      arena;
      row_off = Array.copy t.row_off;
      filled;
      shared;
      opts;
      cands;
      merged_vectors;
      merged_opts;
      merged_cands;
      near = Array.make size None;
    }
  end

let prefetch_referenced t =
  Obs.Span.with_ ~name:"problem.prefetch_referenced" @@ fun () ->
  Engine.iter ~jobs:t.jobs (n_data t) (fun data ->
      let referenced = ref false in
      Array.iteri
        (fun w window ->
          if Reftrace.Window.references window data > 0 then begin
            referenced := true;
            ignore (candidates t ~window:w ~data)
          end)
        t.ctx.Context.windows;
      if not !referenced then ignore (merged_candidates t ~data))

let prefetch_centers t =
  Obs.Span.with_ ~name:"problem.prefetch_centers" @@ fun () ->
  Engine.iter ~jobs:t.jobs (n_data t) (fun data ->
      let referenced = ref false in
      Array.iteri
        (fun w window ->
          if Reftrace.Window.references window data > 0 then begin
            referenced := true;
            ignore (optimal_center t ~window:w ~data)
          end)
        t.ctx.Context.windows;
      if not !referenced then ignore (merged_optimal_center t ~data))

let prefetch_merged t =
  Obs.Span.with_ ~name:"problem.prefetch_merged" @@ fun () ->
  Engine.iter ~jobs:t.jobs (n_data t) (fun data ->
      ignore (merged_candidates t ~data))

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

let solve_datum ?allowed t ~data =
  poll t;
  (* Compose the caller's filter with the alive mask; no closure is built
     on the healthy unfiltered path. *)
  let allowed =
    match (allowed, Pim.Fault.has_node_faults t.fault) with
    | None, false -> None
    | None, true -> Some (fun ~layer:_ j -> t.alive.(j))
    | (Some _ as f), false -> f
    | Some f, true -> Some (fun ~layer j -> t.alive.(j) && f ~layer j)
  in
  let vectors, offsets = layer_slab t ~data in
  Pathgraph.Layered.solve ?allowed ~n_layers:(n_windows t)
    [| { Pathgraph.Layered.relaxation = relaxation t; vectors; offsets } |]
