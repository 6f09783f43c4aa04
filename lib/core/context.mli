(** The immutable half of a scheduling instance, shared across requests.

    A [Context.t] is everything about an instance that does not change
    once built and carries no per-request mutable state: the mesh, the
    trace with its window array and merged window forced eagerly, and the
    default capacity policy and domain-pool size.

    {!Problem.t} layers the {e request-scoped} half on top: cost rows,
    marginal and center caches and the fault overlay. Any number of
    concurrent sessions ({!Problem.of_context}) may share one context from
    different domains — nothing here is written after {!create}, so there
    is nothing to race on. This split is what lets a long-lived scheduler
    service ({!Serve}) keep trace preprocessing hot across
    thousands of requests while every request still gets private caches. *)

(** How much data each processor's local memory holds: [Unbounded], or
    [Bounded c] slots per processor. *)
type capacity_policy = Unbounded | Bounded of int

type t = private {
  mesh : Pim.Mesh.t;
  trace : Reftrace.Trace.t;
  policy : capacity_policy;  (** default for sessions; overridable per request *)
  jobs : int;  (** default domain-pool budget for sessions *)
  windows : Reftrace.Window.t array;  (** treat as read-only *)
  merged : Reftrace.Window.t;  (** forced at build time (thread-safe reads) *)
  size : int;  (** [Pim.Mesh.size mesh] *)
  max_arena_bytes : int;
      (** the dense worst case of a session's cost rows: one
          [size]-entry row of 8-byte ints per (datum, referencing window)
          pair plus one per datum for the merged window — every row
          [Full], as under link faults. Healthy and node-faulted sessions
          hold [cols + rows]-word axis sums instead, far below it. The
          admission-control currency of {!Serve}. *)
}
(** Exposed for allocation-free field reads; never mutate, and build only
    through {!create}. *)

(** [create ?policy ?jobs mesh trace] builds the shared context.
    Defaults match {!Problem.create}: [Unbounded], [jobs = 1].
    @raise Invalid_argument if [Bounded c] with [c < 0] or [jobs < 1]. *)
val create :
  ?policy:capacity_policy ->
  ?jobs:int ->
  Pim.Mesh.t ->
  Reftrace.Trace.t ->
  t

val mesh : t -> Pim.Mesh.t
val trace : t -> Reftrace.Trace.t
val policy : t -> capacity_policy
val jobs : t -> int
val space : t -> Reftrace.Data_space.t
val n_data : t -> int
val n_windows : t -> int

(** [bytes t] is the heap the context holds, in bytes: {!Reftrace.Window.bytes}
    summed over the windows and the merged window, plus the window arrays.
    O(windows × data); what {!Serve} charges a cached context. *)
val bytes : t -> int
