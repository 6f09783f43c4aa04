(** The [pim-sched-serve/1] wire protocol: line-delimited JSON.

    Each request is one JSON object on one line; each response is one JSON
    object on one line, in request order. A request carries an [id]
    (echoed verbatim in the response — any JSON value) and an [op]:

    - ["solve"] (the default): schedule one instance. Instance fields
      mirror the CLI: [workload]/[size]/[partition] name a generated
      workload, or [trace] carries an inline {!Reftrace.Serial} v1 text;
      [mesh] is [{"rows":R,"cols":C,"torus":bool}]; [unbounded] lifts the
      paper's headroom-2 capacity; [algorithm] is the CLI spelling; an
      optional [kernel] field is accepted only as ["separable"] (the one
      cost kernel; any other value is a [bad-request]); [fault] is
      either [{"dead_arrays":[...], "dead_nodes":[...],
      "dead_links":[[a,b],...]}] or [{"seed":s,
      "array_rate":f, "node_rate":f, "link_rate":f}]. An [arrays] group
      spec ("2x2of8x8" or "8x8,4x4", {!Multi.Array_group.of_spec})
      switches the instance to the multi-array tier: [mesh] is ignored
      except that [torus] wraps the members, [inter_cost] prices a
      fabric hop (default 10), inline traces reference {e global} ranks,
      generated workloads are laid out on the group's virtual mesh, and
      the [dead_arrays]/[array_rate] fault fields come alive (they are
      rejected on single-mesh instances). Setting ["timed":true] replays
      the solved schedule through {!Pim.Timed_simulator} and adds a
      [timed] object to the result (cycles, volume_hops,
      link_utilization, bandwidth_idle, queue_stall_cycles, compute_idle,
      energy); an optional [link_model] object ([{"bandwidth":b,
      "flit":f, "wormhole":bool, "queue_depth":d?, "compute_cycles":c}],
      every field defaulted to the degenerate unit-bandwidth
      store-and-forward model) parameterizes the replay. Timed replay is
      single-mesh only — it is rejected on [arrays] group instances.
    - ["ping"] — liveness probe, returns the protocol version.
    - ["stats"] — server counters.
    - ["shutdown"] — acknowledge and stop the daemon after this batch.

    A solve response's [result] holds the algorithm name, the cost
    breakdown ([total]/[reference]/[movement]/[moves]) and [plan], the
    {!Sched.Schedule_serial} v1 text — byte-identical to what the
    one-shot CLI writes with [--plan-out]. Group solves add [arrays]
    (member count) and [array_moves], and their [plan] is the
    {!Multi.Group_serial} group-plan text. Failures come back as
    [{"id":..,"ok":false,"error":{"code","message","offset"?,...}}] with
    codes [parse-error], [bad-request], [over-budget], [solve-error],
    [deadline-exceeded] (the request's [deadline_ms] budget ran out — at
    admission or at a cooperative poll inside the solve),
    [overloaded] (admission shed the request; the error carries a
    [retry_after_ms] hint) or [internal-error] (a crash inside one solve
    task, isolated to that request; the error carries a [backtrace]).

    A solve request may carry ["deadline_ms": B]: the server arms a
    monotonic-clock budget of [B] milliseconds, checked at admission, at
    batch-wave start and at per-datum poll points inside the solve
    ({!Sched.Cancel}). [0] expires immediately — the cheap way to probe
    the typed rejection. *)

val version : string

type mesh_spec = { rows : int; cols : int; torus : bool }

type fault_spec =
  | Fault_explicit of {
      dead_arrays : int list;  (** member indices; group instances only *)
      dead_nodes : int list;
      dead_links : (int * int) list;
    }
  | Fault_seeded of {
      seed : int;
      array_rate : float;  (** whole-array rate; group instances only *)
      node_rate : float;
      link_rate : float;
    }

type instance = {
  workload : string;  (** CLI workload spelling; ignored with [trace_text] *)
  trace_text : string option;  (** inline {!Reftrace.Serial} v1 text *)
  size : int;
  partition : string;
  mesh : mesh_spec;
  arrays : string option;  (** {!Multi.Array_group.of_spec} group spec *)
  inter_cost : int;  (** fabric hop price; group instances only *)
  unbounded : bool;
}

type op =
  | Solve of {
      instance : instance;
      algorithm : string;
      fault : fault_spec option;
      timed : Pim.Link_model.t option;
          (** [Some model] replays the schedule through
              {!Pim.Timed_simulator.run} with that link model and adds a
              [timed] result object; single-mesh instances only *)
      deadline_ms : int option;
          (** latency budget from request arrival, monotonic clock *)
    }
  | Ping
  | Stats
  | Shutdown

type request = { id : Obs.Json.t; op : op }

type error = {
  code : string;
  message : string;
  offset : int option;
  extra : (string * Obs.Json.t) list;
      (** code-specific payload fields appended to the error object
          (e.g. [retry_after_ms] on [overloaded], [backtrace] on
          [internal-error]) *)
}

val make_error :
  ?offset:int -> ?extra:(string * Obs.Json.t) list -> string -> string -> error
(** [make_error code message] is an error with any code. *)

val bad : ?offset:int -> string -> error
(** [bad message] is a [bad-request] error. *)

exception Reject of error
(** How decoding and solving abort on a malformed or unservable request;
    the server turns it into an error response. *)

(** [reject message] raises {!Reject} with a [bad-request] error. *)
val reject : ?offset:int -> string -> 'a

(** [decode line] parses one request line. On failure the returned [id] is
    whatever could be recovered from the line ([Null] if none) so the
    error response can still be correlated. *)
val decode : string -> (request, Obs.Json.t * error) result

(** [request_id line] is the best-effort [id] of a raw request line
    ([Null] when the line does not parse to an object with one) —
    what admission control uses to correlate a typed rejection without
    paying a full decode. *)
val request_id : string -> Obs.Json.t

(** [ok_response id result] / [error_response id e] render one response
    line (no trailing newline). Field order is fixed, so responses are
    byte-deterministic. *)
val ok_response : Obs.Json.t -> (string * Obs.Json.t) list -> string

val error_response : Obs.Json.t -> error -> string
