(** Simulated-annealing scheduler — a generic metaheuristic comparator.

    The paper's algorithms exploit the problem's structure (per-datum
    independence, layered DAG). A natural question for any such design is
    whether a structure-blind search does as well given comparable effort;
    this module answers it. State = full center matrix; move = relocate one
    (window, datum) pair to a random processor with a free slot; objective =
    the exact weighted total cost, evaluated incrementally in O(profile)
    per move; geometric cooling with a private xorshift generator, so runs
    are reproducible per seed.

    Benches show annealing beats the row-wise baseline easily but stays
    well behind GOMCDS at a large multiple of its runtime — evidence the
    shortest-path structure is doing real work. *)

type stats = {
  iterations : int;
  accepted : int;  (** moves accepted (including uphill ones) *)
  initial_cost : int;
  final_cost : int;
}

(** [anneal ?seed ?iterations ?initial problem] anneals from [initial]
    (default: the row-wise static schedule) on a shared {!Problem.t}: the
    session's rows are built on the context's domain pool once, and
    every move's reference-cost delta is then two row-entry reads — so
    annealing shares (and warms) the same caches as every other
    scheduler run on the context. [iterations] defaults to
    [50_000], [seed] to [0xBEEF]. Results are byte-identical to the
    pre-port standalone annealer at equal seeds (kept as an oracle in
    [test/test_fastpath.ml]).
    @raise Invalid_argument if [initial] has the wrong shape, violates
    the context's capacity, or [iterations < 0]. *)
val anneal :
  ?seed:int ->
  ?iterations:int ->
  ?initial:Schedule.t ->
  Problem.t ->
  Schedule.t * stats
