(** Exhaustive reference schedulers, for validating the fast algorithms.

    These enumerate center sequences outright — O(mⁿ) per datum — so they
    are only usable on tiny instances, which is exactly their job: the test
    suite checks GOMCDS (shortest path) against {!optimal_cost}, and SCDS
    against {!optimal_static_cost}, on small random traces. *)

(** [optimal_cost mesh trace ~data] is the cheapest total (reference +
    movement) cost of any per-window center sequence for [data], together
    with one optimal sequence.
    @raise Invalid_argument if [size mesh ^ n_windows > 10_000_000]
    (refusing to melt the machine). *)
val optimal_cost : Pim.Mesh.t -> Reftrace.Trace.t -> data:int -> int * int array

(** [optimal_cost_in problem ~data] is {!optimal_cost} reading the
    session's cached cost rows and its {!Problem.distance}. *)
val optimal_cost_in : Problem.t -> data:int -> int * int array

(** [optimal_static_cost mesh trace ~data] is the cheapest cost achievable
    without movement — the best single center. *)
val optimal_static_cost : Pim.Mesh.t -> Reftrace.Trace.t -> data:int -> int * int

(** [total_optimal_cost_in problem] sums {!optimal_cost_in} over all data —
    the true capacity-free optimum of the whole instance — enumerating data
    concurrently on the context's domain pool (the sum is merged by datum
    index, so it is deterministic). *)
val total_optimal_cost_in : Problem.t -> int
