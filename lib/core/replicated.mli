(** Data scheduling with read replication (our extension).

    The paper fixes "one copy of data is allowed in a system" — an explicit
    simplification. This module relaxes it for read-mostly data: a datum may
    have several copies in a window, reads fetch from the nearest copy, and
    creating a copy costs the distance from the nearest existing one (copies
    persist across windows for free and are dropped for free; every live
    copy occupies a memory slot).

    Coherence is write-invalidate: in any window where a datum is written
    ({!Reftrace.Window.write_profile}), it is pinned to its primary copy —
    no secondaries may live there — and every write is charged the distance
    from the writer to the primary. Read-only windows replicate freely.

    The scheduler keeps the paper's machinery as its backbone: the {e
    primary} copy follows the exact GOMCDS shortest-path trajectory; then,
    per window, {e secondary} copies are added greedily — best rank first —
    as long as each strictly reduces the window's (creation + read) cost,
    at most [max_copies] live copies per datum, and capacity permitting.
    Because every addition strictly pays for itself, the replicated
    schedule never costs more than plain GOMCDS, and with [max_copies = 1]
    it {e is} plain GOMCDS; both facts are property-tested. On
    broadcast-heavy windows (a pivot row read by every processor) it beats
    the single-copy optimum — the quantity {!Bounds.lower_bound} cannot go
    below. *)

type t

val n_windows : t -> int
val n_data : t -> int

(** [copies t ~window ~data] is the datum's copy set during [window],
    primary first; always non-empty. *)
val copies : t -> window:int -> data:int -> int list

(** [schedule ?max_copies problem] builds the replicated schedule on a
    shared {!Problem.t}: the primaries are {!Gomcds.schedule} on the
    session and every live copy counts against {!Problem.capacity}.
    [max_copies] defaults to 2.
    @raise Invalid_argument if [max_copies < 1], the capacity is
    infeasible for the primaries, or the session's fault is not
    {!Pim.Fault.none} — replication has no fault semantics. *)
val schedule : ?max_copies:int -> Problem.t -> t

type cost_breakdown = {
  reads : int;  (** Σ count · distance-to-nearest-copy *)
  primary_movement : int;  (** GOMCDS-style migration of the primary *)
  creation : int;  (** Σ distance from nearest existing copy *)
  total : int;
}

(** [cost t mesh trace] prices the replicated schedule. *)
val cost : t -> Pim.Mesh.t -> Reftrace.Trace.t -> cost_breakdown

(** [to_rounds t mesh trace] lowers to simulator traffic: primary
    migrations, then copy-creation messages, then one read message per
    profile entry from its nearest copy. Routing it reproduces
    [cost t mesh trace].total exactly (tested). *)
val to_rounds : t -> Pim.Mesh.t -> Reftrace.Trace.t -> Pim.Simulator.round list

(** [max_live_copies t ~data] is the largest copy-set size the datum ever
    has. *)
val max_live_copies : t -> data:int -> int

(** [check_capacity t ~capacity] verifies that no window packs more than
    [capacity] copies on one processor; first violation or [None]. *)
val check_capacity : t -> capacity:int -> (int * int * int) option
