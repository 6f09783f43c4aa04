(** Global-Optimal Multiple-Center Data Scheduling (paper Algorithm 2).

    For each datum a layered cost-graph is built: node (i, j) is "the datum
    sits at processor j during window i"; entering a node costs that
    window's reference cost from j, and the edge from (i, j) to (i+1, k)
    additionally costs the j→k migration. The shortest source→sink path
    gives the provably cheapest center sequence for the datum — with
    unbounded memory, GOMCDS is optimal per datum (the test suite checks it
    against brute-force enumeration and the LOMCDS/SCDS upper bounds).

    With bounded memory, data are scheduled heaviest-first and each datum's
    shortest path is restricted to (window, processor) nodes with free
    slots, the precise form of the paper's processor-list remark. *)

(** [schedule problem] computes the GOMCDS schedule on a shared
    {!Problem.t}. With an unbounded policy the per-datum shortest paths are
    solved concurrently on the context's domain pool (they share no state);
    with [Bounded _] the cost vectors are filled in parallel and the
    occupancy-aware routing runs serially, heaviest datum first. Either
    way the schedule is identical at every [jobs] setting.
    @raise Invalid_argument if the capacity policy is infeasible. *)
val schedule : Problem.t -> Schedule.t
