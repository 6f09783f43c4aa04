(** Contention-aware timing of a schedule's traffic.

    {!Simulator} verifies the paper's scalar cost (hop·volume units);
    this module answers the follow-on question the paper leaves open: how
    long does a window's traffic actually {e take} when links have finite
    bandwidth and messages queue behind each other?

    The engine is a cycle-accurate packet simulation parameterized by a
    {!Link_model.t}: per-link bandwidth, optional wormhole (flit-
    fragmented) pipelining vs store-and-forward, bounded router input
    queues with backpressure, and per-node compute occupancy. A message
    follows its x-y route hop by hop; a link moves up to [bandwidth]
    volume units per cycle and serves waiting packets in FIFO order (ties
    broken by injection order, so runs are deterministic); under
    store-and-forward a packet occupies a link for [ceil (volume /
    bandwidth)] consecutive cycles and only then queues at the next link,
    while under wormhole each flit-sized fragment does so independently,
    pipelining the message across its route. With a bounded [queue_depth]
    a packet that finishes its hop but finds the downstream queue full
    {e blocks in place}, holding its current link idle — the backpressure
    propagates upstream one blocked link at a time. With
    [compute_cycles > 0] a rank that sinks reference traffic is busy
    executing at round start and cannot inject its own packets until
    done. Migration packets of a round are injected before reference
    packets, all at cycle 0. The round's {e makespan} is the cycle at
    which its last packet is delivered (and, under the compute model,
    every rank has finished executing).

    The default model is {!Link_model.degenerate} — bandwidth 1,
    store-and-forward, unbounded queues, free compute — under which the
    engine is pinned {e byte-identical} (cycles, messages, volume-hops
    and the utilization float) to the pre-model engine, kept verbatim
    as a test oracle by the differential suite in [test_timed_model.ml],
    across schedulers, topologies and faults.

    Two easy lower bounds hold and are property-tested: a round's
    makespan is at least [ceil (volume / bandwidth)] of the most loaded
    link, and at least the longest single-packet serialized path (for a
    lone store-and-forward message, [hops × ceil (volume / bandwidth)]). *)

(** Raised by the watchdog when a cycle passes with packets in flight but
    no units transmitted, no grants and no advances once every rank is
    done computing — the state can never change again. Only reachable
    with bounded queues when blocked packets form a cyclic link
    dependency (e.g. fault detours that defeat x-y order); the fault ×
    queue-depth suite pins that detoured bottlenecks stall but never
    deadlock. *)
exception Deadlock of { cycle : int; in_flight : int }

type round_report = {
  round : int;
  cycles : int;  (** makespan of the round; 0 for an all-local round *)
  messages : int;  (** messages actually injected (non-local, volume > 0) *)
  volume_hops : int;  (** Σ volume·hops — equals the analytic cost *)
  utilization : float;
      (** Legacy aggregate kept for the pre-model reports:
          [volume_hops / (live links × cycles)] where {e live links} is
          the count of links {e ever} active this round — the denominator
          charges every such link for the full makespan, not for the
          cycles it was actually live, so a lone message over [h] hops
          scores [1/h], and only the single-{e hop} message scores [1.0]
          (both pinned by regression tests). For a per-cycle-honest
          figure read {!round_report.link_utilization}. *)
  flits : int;
      (** packets physically injected: fragments under wormhole,
          [= messages] under store-and-forward *)
  link_utilization : float;
      (** busy link-cycles / live link-cycles, where a link is {e live}
          from grant interest to last transmission (busy transmitting,
          holding a blocked packet, or queueing an ineligible head) — a
          lone message scores [1.0] over any route length *)
  bandwidth_idle : int;
      (** idle link-cycles over the round: [live links × cycles − busy
          link-cycles] — capacity the makespan paid for but never used *)
  queue_stall_cycles : int;
      (** Σ packet-cycles spent blocked in place by a full downstream
          queue; [0] with unbounded queues *)
  compute_idle : int;
      (** Σ rank-cycles waiting on the round after finishing local
          execution; [0] when compute is free ([compute_cycles = 0]) *)
}

type report = {
  rounds : round_report list;
  total_cycles : int;  (** Σ round makespans — rounds are barriers *)
  total_volume_hops : int;
  link_utilization : float;  (** busy / live link-cycles over all rounds *)
  bandwidth_idle : int;  (** Σ per-round bandwidth_idle *)
  queue_stall_cycles : int;  (** Σ per-round queue_stall_cycles *)
  compute_idle : int;  (** Σ per-round compute_idle *)
  energy_transport : float;
      (** [energy.per_hop · total_volume_hops] ({!Energy}'s transport
          term, priced with the model's parameters) *)
  energy_leakage : float;
      (** [energy.leak · processors · total_cycles] *)
  energy : float;
      (** [energy_transport + energy_leakage]; equals
          [Energy.of_report mesh report] bit for bit under the default
          parameters (pinned) *)
}

(** [run ?fault ?model mesh rounds] simulates every round to completion
    under [model] (default {!Link_model.degenerate}). With a [fault],
    packets follow the fault-aware BFS detours around dead links. Under
    the compute model a rank's occupancy is [compute_cycles] per
    reference volume unit it sinks in the round (local references
    included — the operations still execute).
    @raise Fault.Unreachable if a packet's destination has no surviving
    path.
    @raise Deadlock if backpressure wedges (see {!Deadlock}). *)
val run :
  ?fault:Fault.t -> ?model:Link_model.t -> Mesh.t -> Simulator.round list ->
  report

(** [round_makespan ?fault ?model mesh messages] times one batch of
    messages (cycle at which the last one is delivered). For compute
    occupancy every message of the batch counts as reference work at its
    destination. *)
val round_makespan :
  ?fault:Fault.t -> ?model:Link_model.t -> Mesh.t -> Router.message list ->
  int

(** [round_stats ?fault ?model mesh messages] is the full report of one
    batch simulated as a standalone round (same conventions as
    {!round_makespan}). *)
val round_stats :
  ?fault:Fault.t -> ?model:Link_model.t -> Mesh.t -> Router.message list ->
  round_report

val pp_report : Format.formatter -> report -> unit
