(** The two-level multi-array scheduler.

    [solve] dispatches one of three strategies, most specific first:

    - {e Degenerate delegation} — a 1-member group with no dead array is
      exactly the single-mesh problem, so the member session is handed
      to {!Sched.Scheduler.solve} unchanged and the answer lifted back;
      byte-identical to the plain path by construction (counter
      [multi.degenerate_delegations]).
    - {e Migration DP} — for [Gomcds] under an [Unbounded] policy with
      no member link faults, the per-datum layered DP runs over the
      whole group at once ({!Pathgraph.Layered.solve}, one block per
      member): member blocks keep their mesh-shaped relaxation, the flat
      fabric contributes one scalar edge per member pair, and the per-layer
      cross-array reference cost enters as a per-member constant — so
      trajectories migrate between arrays mid-trace exactly when the
      traffic pays the fabric price. Per-datum optimal, fanned out on
      the domain pool (counter [multi.migration_solves]).
    - {e Static two-level} — everything else: stage one assigns each
      datum to an array ({!Group_problem.assignment}); stage two runs
      the requested algorithm {e unchanged} inside each member on the
      subset trace of its assigned data, and the local answers are
      lifted to global ranks. Bounded capacity, link faults, grouping,
      refinement, annealing — all inherit the single-array machinery
      (counter [multi.static_solves]).

    Determinism matches the single-array contract: any [jobs] setting
    yields the identical schedule. *)

(** [solve gp algorithm] runs the dispatch above.
    @raise Invalid_argument when a bounded policy cannot hold the data. *)
val solve : Group_problem.t -> Sched.Scheduler.algorithm -> Group_schedule.t

(** [evaluate gp algorithm] runs and prices the schedule under the group
    metric. *)
val evaluate :
  Group_problem.t ->
  Sched.Scheduler.algorithm ->
  Group_schedule.t * Group_schedule.cost_breakdown

(** [lower_bound gp] is Σ over data of the volume-weighted per-datum
    migration-DP optimum — the capacity-free floor no schedule beats
    under the group metric. [None] when member link faults force the DP
    off the members' mesh metric. *)
val lower_bound : Group_problem.t -> int option
