(** The long-lived scheduling daemon behind [pimsched serve].

    One server owns a cache of shared immutable {!Sched.Context.t}s keyed
    by instance (mesh, trace source, capacity policy) and answers
    {!Protocol} requests. A cache miss builds the instance with
    {!Instance.build}, the builder the one-shot CLI uses too. Each solve
    runs a private request-scoped session over the cached context, so
    thousands of requests on one
    instance reuse the trace preprocessing while never
    sharing a mutable row cache. The last session solved per context is kept
    warm: a repeat instance — even under a different fault — checks it
    out and patches it ({!Sched.Problem.with_fault_patch}), refilling
    only the cost rows the fault change repriced, instead of opening a
    cold {!Sched.Problem.of_context} session. A solved group
    ([arrays]) problem is kept warm the same way, keyed on the instance,
    group spec, fabric price and fault spec, and reused as is. Request
    waves fan out
    across the {!Sched.Engine} domain pool; responses depend only on the
    request — never on batching, wave boundaries, warm-session reuse or
    [jobs] — so a served answer is byte-identical to the one-shot CLI
    solve.

    {2 Hardening}

    The server assumes hostile traffic:

    - {b Admission by arena footprint}: a request whose context would
      need more than [max_arena_bytes] cost-arena bytes if fully forced
      ({!Sched.Context.t.max_arena_bytes}) is rejected with code
      [over-budget] before any cost row is built.
    - {b Deadlines}: a solve carrying [deadline_ms] is checked at
      admission, at wave start and at per-datum poll points inside the
      solve ({!Sched.Cancel}); expiry answers a typed
      [deadline-exceeded].
    - {b Bounded caches}: contexts and warm sessions live in
      byte-accounted {!Lru} caches with fixed shares of [max_cache_bytes]
      (contexts 1/2, warm sessions 3/8), so their sum stays under it;
      evicting a context cascades to its warm session.
    - {b Overload shedding}: buffered backlog beyond [max_queue] lines
      is answered [overloaded] (with a [retry_after_ms] hint) without
      being decoded or solved.
    - {b Line cap}: a request line over [max_line_bytes] is discarded as
      it streams in (bounded buffer) and answered with a typed
      [parse-error].
    - {b Crash isolation}: an exception escaping one request's admission
      or solve becomes a typed [internal-error] (with a backtrace) for
      that request only; a wave poisoned at the engine's task boundary
      is re-run serially. The daemon survives.
    - {b Slow readers}: responses are written with a per-response
      [write_timeout_ms] budget; a stalled or vanished client
      (EPIPE/ECONNRESET/timeout) ends the daemon loop cleanly. SIGPIPE
      is ignored.
    - {b Failpoints}: the request path is instrumented with
      {!Obs.Failpoint} sites [serve.read], [serve.decode],
      [serve.solve], [serve.write] (plus [engine.task] underneath) —
      no-ops unless a chaos schedule is armed.

    Event counters: every counter the [stats] op reports ([requests],
    [errors], [rejected], [batches], [warm_sessions],
    [warm_group_sessions], [overloaded], [deadline_exceeded],
    [task_crashes], [line_overflows], [wave_retries]) is bumped on one
    path that, when {!Obs.enabled}, also bumps the Obs counter
    [serve.<name>]; so do [serve.context_hits], [serve.context_misses],
    [serve.group_requests], [serve.cache_evictions] and
    [serve.client_gone], which [stats] does not report. Histogram
    [serve.solve_us]. *)

type config = {
  jobs : int;  (** domain pool size for waves and within sessions *)
  batch : int;  (** max requests answered per wave *)
  max_arena_bytes : int option;  (** admission budget; [None] = unlimited *)
  max_cache_bytes : int;
      (** bound on the bytes the context and warm-session caches hold
          together; [0] disables caching entirely *)
  max_line_bytes : int;  (** request line cap; longer lines are rejected *)
  max_queue : int;
      (** buffered request lines tolerated beyond the current wave;
          excess is shed with [overloaded] *)
  write_timeout_ms : float;
      (** per-response write budget before a slow reader is dropped *)
}

(** Machine-fitted jobs, batch 16, no arena budget, 256 MiB cache
    budget, 4 MiB line cap, queue 1024, 5 s write timeout. *)
val default_config : unit -> config

type t

(** @raise Invalid_argument on a non-positive [jobs], [batch],
    [max_line_bytes] or [write_timeout_ms], or a negative
    [max_cache_bytes] or [max_queue]. *)
val create : ?config:config -> unit -> t

(** [process_batch t lines] answers one wave of request lines, in request
    order, fanning solves out on the domain pool. Each response is paired
    with its solve latency in seconds ([0.] for non-solve ops). *)
val process_batch : t -> string list -> (string * float) list

(** [handle_line t line] is a one-request wave. *)
val handle_line : t -> string -> string

(** [stopping t] is true once a shutdown op has been answered. *)
val stopping : t -> bool

(** [stats_json t] is the same object a [stats] op returns. Beside the
    counters and cache sizes it holds a [heap] object: [minor_words]
    from [Gc.minor_words], current for the calling domain, and
    [heap_words], [top_heap_words], [minor_collections] and
    [major_collections] from [Gc.quick_stat], which samples them as
    major cycles end, so they lag the heap. *)
val stats_json : t -> Obs.Json.t

(** [run t ~input ~output] is the daemon loop: block for a request line
    on the raw [input] fd, greedily drain whatever else has already
    arrived (up to [config.batch]), shed backlog beyond [max_queue],
    answer the wave in order, write the response lines to [output],
    repeat. Returns on end of input, after answering a [shutdown] op
    (draining the in-flight wave first), or when the client stops
    reading responses. [output] is put in non-blocking mode for the
    duration of the call (restored on return). *)
val run : t -> input:Unix.file_descr -> output:Unix.file_descr -> unit
