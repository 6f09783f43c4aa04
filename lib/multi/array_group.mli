(** A group of PIM arrays behind an inter-array interconnect.

    The paper schedules data onto a single PIM grid; the MASIM deployment
    shape (see PAPERS.md) is many in-memory arrays — possibly of different
    sizes and topologies — joined by a fabric whose hops cost 10–100× an
    intra-array hop. An [Array_group.t] is that tier: an ordered list of
    {e member} meshes, an {e interconnect} mesh with one node per member
    giving the array-to-array hop counts, and a per-hop cost multiplier.

    {b Ranks.} Group processors are addressed by a dense {e global rank}:
    member blocks concatenated in member order, row-major within each
    member — the global rank of member [i]'s local rank [r] is
    [base t i + r]. A 1-member group's global ranks therefore coincide
    with the member's own ranks, which is what makes the degenerate case
    byte-identical to the single-mesh path.

    {b Metric.} The group distance is two-level and {e flat} across the
    fabric: within a member it is the member's own (wrap-aware) mesh
    distance; between members it is [inter_cost ·
    inter-mesh distance(i, j)] with {e no} intra-member component on
    either end — boarding the fabric dominates the local walk by
    construction ([inter_cost] ≫ member diameters is the intended
    regime). Flatness is what keeps the cross-array layer of the
    scheduler exact and cheap: the cost of hosting a datum in member [i]
    decomposes into (member-local term) + (a constant per member), so
    array assignment reduces to comparing per-array marginal sums
    (DESIGN.md §12). *)

type t

(** [create ?inter_cost ~inter members] builds a group: [members.(i)]
    hangs off node [i] of the [inter] mesh (so
    [Array.length members = Pim.Mesh.size inter]). [inter_cost] (default
    [10]) is the fabric's per-hop cost multiplier.
    @raise Invalid_argument if the member count does not match the
    interconnect size, [inter_cost < 1], or the dearest move (across the
    interconnect's diameter) would cost more than
    {!Sched.Problem.unreachable_cost} — the largest step the layered DP
    packs (DESIGN.md §16, "Packed cells"). *)
val create : ?inter_cost:int -> inter:Pim.Mesh.t -> Pim.Mesh.t array -> t

(** [line ?inter_cost members] joins the members along a 1×n interconnect
    — the natural shape for a heterogeneous list.
    @raise Invalid_argument on the empty list. *)
val line : ?inter_cost:int -> Pim.Mesh.t list -> t

(** [of_spec ?inter_cost ?torus spec] parses the CLI grammar:
    - ["RxCofAxB"] — an [R]×[C] grid interconnect of identical [A]×[B]
      members (e.g. ["2x2of8x8"]);
    - ["AxB,CxD,..."] — a heterogeneous comma list joined by a line
      interconnect (a single ["AxB"] is the 1-member degenerate group).

    [torus] (default [false]) makes every {e member} a torus; the
    interconnect is always a plain mesh.
    @raise Invalid_argument on a malformed spec. *)
val of_spec : ?inter_cost:int -> ?torus:bool -> string -> t

val n_members : t -> int

(** [member t i] is the [i]-th member mesh. *)
val member : t -> int -> Pim.Mesh.t

val members : t -> Pim.Mesh.t array

(** [inter t] is the interconnect mesh (one node per member). *)
val inter : t -> Pim.Mesh.t

val inter_cost : t -> int

(** [size t] is the total processor count, Σ member sizes. *)
val size : t -> int

(** [base t i] is the global rank of member [i]'s local rank 0. *)
val base : t -> int -> int

(** [member_of_rank t g] is the member owning global rank [g]. *)
val member_of_rank : t -> int -> int

(** [local_of_rank t g] is [(member, local rank)]. *)
val local_of_rank : t -> int -> int * int

(** [global_rank t ~member r] is [base t member + r], validated. *)
val global_rank : t -> member:int -> int -> int

(** [array_distance t i j] is the interconnect hop count between members
    [i] and [j]. *)
val array_distance : t -> int -> int -> int

(** [move_cost t i j] is the flat member-to-member transfer price:
    [0] when [i = j], else [inter_cost t · array_distance t i j]. *)
val move_cost : t -> int -> int -> int

(** [distance t a b] is the group metric between global ranks: the member
    mesh distance when [a] and [b] share a member, [move_cost] between
    their members otherwise. *)
val distance : t -> int -> int -> int

(** [degenerate t] is [Some mesh] iff the group has exactly one member —
    the case every solver delegates to the plain single-array path. *)
val degenerate : t -> Pim.Mesh.t option

(** [validate_trace t trace] checks every referenced processor is a
    global rank of the group. @raise Invalid_argument otherwise. *)
val validate_trace : t -> Reftrace.Trace.t -> unit

(** [equal a b] holds when member shapes/topologies, interconnect and
    cost multiplier all agree. *)
val equal : t -> t -> bool

(** {2 Virtual embedding}

    Workload generators ({!Workloads}) speak single-mesh geometry. The
    group's {e virtual mesh} is a plain mesh tiling the members onto the
    interconnect grid (tile column widths / row heights are the per-grid-
    column / per-grid-row maxima; a 1-member group's virtual mesh is the
    member itself): generate the workload there, then
    {!remap_virtual_trace} carries every reference onto group ranks
    (coordinates beyond a smaller member's edge clamp to its last
    row/column). This is how [pimsched --arrays] builds group traces. *)

(** [virtual_mesh t] is the tiling mesh described above. *)
val virtual_mesh : t -> Pim.Mesh.t

(** [of_virtual_rank t r] maps a {!virtual_mesh} rank to a global group
    rank. *)
val of_virtual_rank : t -> int -> int

(** [remap_virtual_trace t trace] rewrites every reference's processor
    through {!of_virtual_rank} (window structure, data ids, read/write
    kinds preserved). The identity on a 1-member group — same physical
    trace value. *)
val remap_virtual_trace : t -> Reftrace.Trace.t -> Reftrace.Trace.t

val pp : Format.formatter -> t -> unit
