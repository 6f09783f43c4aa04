(** The paper's communication cost model.

    The cost of a processor's reference to a datum stored at [center] is the
    x-y routing distance between them; the total communication cost of a
    datum in a window is Σ count(p) · dist(center, p) over the window's
    processor reference string. Moving a datum between two consecutive
    windows' centers costs their distance (unit data volume — the paper
    keeps one copy of each datum and charges one time unit per hop).

    The functions here are the {e separable} kernel: x-y routing distance
    decomposes per axis, so a whole cost vector follows from the window's
    per-axis weight marginals ({!Reftrace.Window.marginals}) in
    O(P + refs) via prefix sums (circular prefix sums on a torus). The
    direct O(P · refs) per-vector evaluation is kept as the executable
    specification in the test-only oracle library; the two agree
    byte-for-byte, including argmin tie order — enforced by the property
    suite in [test/test_kernel.ml]. *)

(** [reference_cost mesh window ~data ~center] is the total cost of serving
    every reference to [data] in [window] from [center]. *)
val reference_cost :
  Pim.Mesh.t -> Reftrace.Window.t -> data:int -> center:int -> int

(** [cost_vector mesh window ~data] tabulates {!reference_cost} for every
    candidate center; index = processor rank. Built separably from axis
    marginals in O(P + refs). *)
val cost_vector : Pim.Mesh.t -> Reftrace.Window.t -> data:int -> int array

(** [local_optimal_center mesh window ~data] is the paper's Definition 4:
    the minimum-cost center for [data] in [window] (smallest rank on ties,
    for determinism). For a datum with no references every processor costs 0
    and rank 0 is returned. *)
val local_optimal_center :
  Pim.Mesh.t -> Reftrace.Window.t -> data:int -> int

(** [path_cost mesh window_profiles centers] is the full per-datum schedule
    cost: reference cost of each window (paired with its center) plus
    movement between consecutive centers. [window_profiles] and [centers]
    must have equal length. Used by grouping and the brute-force optimum.
    @raise Invalid_argument on length mismatch or empty input. *)
val path_cost :
  Pim.Mesh.t -> (Reftrace.Window.t * int) list -> data:int -> int

(** [axis_cost ~wrap m] maps an axis weight marginal [m] (length [E]) to
    the per-position axis cost array: [c.(i) = Σ_j m.(j) · d(i, j)] with
    [d] the wrap-aware 1-D distance. O(E) via (circular) prefix sums. *)
val axis_cost : wrap:bool -> int array -> int array

(** [axis_min ~wrap m] is the lowest index minimizing {!axis_cost}
    [~wrap m] and that minimum; on a line, a walk to the weighted median
    that builds no array. [m] must be non-empty. *)
val axis_min : wrap:bool -> int array -> int * int

(** [vector_of_marginals ~wrap (mx, my)] assembles a full cost vector from
    per-axis marginals: [v.(y·cols + x) = cx.(x) + cy.(y)], the marginals'
    lengths fixing [cols] and [rows]. The entry point for callers that
    already hold marginals (e.g. merged-window pricing in
    {!Sched.Grouping}) and want to skip re-projection. *)
val vector_of_marginals : wrap:bool -> int array * int array -> int array

(** [argmin_of_marginals ~wrap m] is the vector-free fast path
    of Definition 4: the minimum-cost center and its cost, computed
    directly from the axis marginals in O(cols + rows) without assembling
    the cols·rows cost vector. Tie order (lowest index per axis, hence
    lowest row-major rank) is identical to an ascending full-vector argmin
    — the property suite in [test/test_fastpath.ml] pins this on meshes
    and tori. *)
val argmin_of_marginals : wrap:bool -> int array * int array -> int * int
