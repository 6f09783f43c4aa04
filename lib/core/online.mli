(** Online data scheduling with hysteresis (our extension).

    The paper's schedulers are offline: they see every execution window
    before placing anything. A runtime system often cannot — it discovers
    each window's reference string as it executes. This scheduler processes
    windows strictly left to right with no lookahead: data start at an
    imposed placement (default row-wise, the host's layout), and when a
    referenced datum's current home is worse than the window's local
    optimal center, it migrates only if

    [(current cost − best cost) × theta > migration distance]

    — [theta] is the hysteresis horizon, the number of windows the current
    pattern is assumed to persist. [theta = 1] is conservative (every
    migration is immediately profitable within its own window); large
    [theta] recovers LOMCDS's always-chase behaviour; [theta → 0] never
    moves at all and equals the static initial placement (a property
    test). No online policy can match the offline optimum in general —
    this is a metrical-task-system-style problem — but the offline
    {!Adapt} schedule from the same initial placement is always a lower
    bound (property-tested), and bench ablation A9 measures the empirical
    competitive ratio across [theta]. *)

(** [schedule ?theta ?initial problem] computes the online schedule on a
    shared {!Problem.t}: stay/go probes read the session's cached rows
    ({!Problem.row}), a bounded go-target is the row's processor-list
    head with room ({!Processor_list.choose}), and under an unbounded policy the go-target is the vector-free
    {!Problem.optimal_center} (the list head it replaces — byte-identical
    schedules, pinned by [test/test_fastpath.ml]). [theta] defaults to
    [2.]; [initial] to the row-wise placement. Window 0 always serves from
    the initial placement (the data are already there when execution
    starts).
    @raise Invalid_argument if [theta <= 0.], [initial] is malformed, or
    the context's capacity is infeasible. *)
val schedule :
  ?theta:float -> ?initial:int array -> Problem.t -> Schedule.t
