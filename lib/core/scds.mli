(** Single-Center Data Scheduling (paper Algorithm 1).

    All execution windows are merged into one; each datum is placed at the
    processor minimizing its total communication cost over the whole
    execution and never moves. With bounded memory, the per-datum processor
    list supplies the first available fallback. *)

(** [schedule problem] computes the SCDS schedule on a shared {!Problem.t}
    context. The merged-window cost rows are filled on the context's domain
    pool; the capacity-respecting allocation itself ({!Processor_list.place}
    on each row) runs serially, heaviest datum first, so the result is
    identical at every [jobs] setting.
    @raise Invalid_argument if the capacity policy is infeasible
    ([capacity * size mesh < n_data]). *)
val schedule : Problem.t -> Schedule.t

(** [placement problem] is the underlying static placement array
    ([placement.(data) = rank]). *)
val placement : Problem.t -> int array

(** [center_of problem ~data] is just the chosen center of one datum —
    rank of the first processor in its (capacity-respecting) processor
    list. Exposed for the worked example and tests. *)
val center_of : Problem.t -> data:int -> int
