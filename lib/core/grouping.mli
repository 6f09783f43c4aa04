(** Execution-window grouping (paper Algorithm 3).

    Per datum, consecutive execution windows are greedily merged into larger
    windows as long as the total communication cost (reference + movement)
    does not increase; the datum then sits at the merged window's center for
    the group's whole span. Grouping is computed over the subsequence of
    windows that actually reference the datum — windows that don't cannot
    change its cost and never force movement.

    Reference cost is linear in reference profiles, so a group's cost vector
    is the sum of its members' cost vectors; each greedy extension is
    O(cols + rows) over summed axis marginals, O(m) over a link-faulted
    session's cost vectors.

    Two center policies:
    - [`Local] — the merged window's local optimal center (the paper's
      Table 2 configuration, "Algorithm 3 assuming using LOMCDS to compute
      centers");
    - [`Global] — after the partition is fixed, centers are re-optimized by
      the GOMCDS shortest-path DP over the merged windows (our extension,
      benchmarked as an ablation). *)

type center_policy = [ `Local | `Global ]

type group = {
  first : int;  (** first original window index of the group *)
  last : int;  (** last original window index (inclusive) *)
  center : int;  (** processor holding the datum for the group's span *)
}

(** [groups problem ~data ~centers] runs the greedy Algorithm 3 for one
    datum on a shared {!Problem.t} and returns its groups in execution
    order; the empty list when the datum is never referenced. A healthy
    or node-faulted session prices merges from cached axis marginals
    ({!Cost.axis_min} per axis; dead ranks masked out of center choice,
    ties to the lowest alive rank);
    under link faults, whose distances do not split per axis, from the
    session's cost vectors. *)
val groups :
  Problem.t -> data:int -> centers:center_policy -> group list

(** [refine_centers problem rows] is the [`Global] center pass: [rows]
    holds one cost row per group, in order, and the result is one center
    per group along the cheapest trajectory under the mesh metric, with
    the layered DP's tie rule; dead ranks never host a center. One
    {!Pathgraph.Layered.solve} block relaxed by {!Problem.relaxation}, so
    an [Axis_sum] row needs a session without link faults. *)
val refine_centers : Problem.t -> Problem.row array -> int array

(** [schedule ?centers problem] builds the full schedule; per-datum
    partitions fan out across the context's domain pool, gaps keep data in
    place, and a bounded policy is repaired by a serial per-window pass,
    heaviest datum first, that puts each datum on the nearest rank with
    room to its desired center (ties to the lower rank): a
    {!Processor_list.place_near} shell walk from a per-window floor per
    target, or under link faults one {!Processor_list.place} over the
    BFS table's row — identical output at every [jobs] setting. The
    admit bytes the walk reads go to [grouping.repair_probes].
    [centers] defaults to [`Local].
    @raise Invalid_argument if the capacity policy is infeasible. *)
val schedule : ?centers:center_policy -> Problem.t -> Schedule.t

(** [optimal_groups problem ~data] replaces the paper's greedy with an
    exact dynamic program: over all ways to cut the datum's referenced
    windows into consecutive groups {e and} all choices of one center per
    group, it minimizes Σ group reference cost + movement between
    consecutive group centers. State = (windows covered, last group's
    center); O(w² · m²) per datum thanks to the linearity of cost vectors.
    The paper remarks that "exhaustively finding all possible choices of
    grouping may be costly" — this shows polynomial suffices. It also makes
    a structural fact testable: a group of [k] windows at center [c] is the
    same trajectory as staying at [c] for [k] windows, so optimal grouping
    attains {e exactly} the per-datum GOMCDS optimum (the all-singleton
    partition with free centers is in its search space, and no partition
    can beat a free trajectory). Grouping's practical value is therefore as
    a cheap repair of LOMCDS's center-chasing — which is how the paper's
    Table 2 uses it. Returns groups like {!groups}. *)
val optimal_groups : Problem.t -> data:int -> group list

(** [optimal_schedule problem] builds the schedule from {!optimal_groups}
    for every datum (capacity handled like {!schedule}). *)
val optimal_schedule : Problem.t -> Schedule.t

