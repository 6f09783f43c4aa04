type capacity_policy = Unbounded | Bounded of int

type t = {
  mesh : Pim.Mesh.t;
  trace : Reftrace.Trace.t;
  policy : capacity_policy;
  jobs : int;
  windows : Reftrace.Window.t array;
  merged : Reftrace.Window.t;
  size : int;
  max_arena_bytes : int;
}

let create ?(policy = Unbounded) ?(jobs = 1) mesh trace =
  (match policy with
  | Bounded c when c < 0 -> invalid_arg "Context.create: negative capacity"
  | Bounded _ | Unbounded -> ());
  if jobs < 1 then invalid_arg "Context.create: jobs must be >= 1";
  let size = Pim.Mesh.size mesh in
  let windows = Array.of_list (Reftrace.Trace.windows trace) in
  let n_data = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
  (* Dense worst case of a session's rows: per datum, one [Full] row per
     referencing window plus its merged-window row (8-byte entries).
     Computed here, once, so a service can admission-control a request
     before any row exists. *)
  let slots = ref 0 in
  for data = 0 to n_data - 1 do
    incr slots;
    Array.iter
      (fun w -> if Reftrace.Window.references w data > 0 then incr slots)
      windows
  done;
  {
    mesh;
    trace;
    policy;
    jobs;
    windows;
    merged = Reftrace.Trace.merged trace;
    size;
    max_arena_bytes = 8 * size * !slots;
  }

let mesh t = t.mesh
let trace t = t.trace
let policy t = t.policy
let jobs t = t.jobs
let space t = Reftrace.Trace.space t.trace
let n_data t = Reftrace.Data_space.size (space t)
let n_windows t = Array.length t.windows

(* The windows and the merged window are all but a few words of what a
   context holds; the two window arrays (the trace's and ours) add one
   word per window each. *)
let bytes t =
  Array.fold_left
    (fun acc w -> acc + Reftrace.Window.bytes w)
    (Reftrace.Window.bytes t.merged + (16 * (Array.length t.windows + 1)))
    t.windows
