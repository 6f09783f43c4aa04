(** Unified front-end over every scheduling algorithm in the library.

    The entry point is {!solve}: build one {!Problem.t} for the
    instance (mesh + trace + capacity policy + domain-pool size) and
    dispatch any number of algorithms against it — they share the context's
    cost-row cache, and their per-datum work fans out
    across the pool. A {!Problem.t} is the only way an instance and its
    capacity reach a scheduler. *)

type algorithm =
  | Row_wise  (** the paper's straight-forward baseline *)
  | Column_wise
  | Block_2d
  | Cyclic
  | Random of int  (** seeded random static placement *)
  | Scds
  | Lomcds
  | Gomcds
  | Lomcds_grouped  (** Algorithm 3 with local centers — Table 2 *)
  | Gomcds_grouped  (** Algorithm 3 followed by shortest-path centers *)
  | Gomcds_refined
      (** GOMCDS followed by the {!Refine} fixed-point pass — repairs
          greedy capacity commitments (our extension) *)
  | Best_refined
      (** portfolio: refine GOMCDS, LOMCDS and both grouping variants to a
          fixed point and keep the cheapest (our extension) *)
  | Annealing of int
      (** {!Annealing.anneal} on the shared context at the given seed —
          the structure-blind comparator (our extension) *)
  | Online of float
      (** {!Online.schedule} on the shared context at the given hysteresis
          theta (our extension) *)

(** Every algorithm in the paper's presentation order — the portfolio
    {e compare} sweeps. [Annealing]/[Online] are dispatchable by name but
    excluded here: one is orders of magnitude slower than the rest, the
    other answers a different (no-lookahead) question. *)
val all : algorithm list

val name : algorithm -> string

(** Every {!name}, in presentation order — the CLI spellings. *)
val valid_names : string list

(** [of_name s] parses the CLI spelling produced by {!name}.
    Case-insensitive; surrounding whitespace is ignored.
    @raise Invalid_argument on unknown names, listing the valid ones. *)
val of_name : string -> algorithm

(** [solve problem algorithm] dispatches to the implementation. Static
    baselines ignore the capacity policy (their placements respect the
    paper's 2× headroom rule by construction; see {!Baseline.max_load}).
    Every algorithm is deterministic in the instance alone: any [jobs]
    setting yields the identical schedule. *)
val solve : Problem.t -> algorithm -> Schedule.t

(** [evaluate_in problem algorithm] runs and prices the schedule. *)
val evaluate_in : Problem.t -> algorithm -> Schedule.t * Schedule.cost_breakdown

(** [improvement ~baseline ~cost] is the paper's "%" column:
    [(baseline - cost) / baseline * 100.]; [0.] when [baseline] is 0. *)
val improvement : baseline:int -> cost:int -> float
