(** Byte-accounted LRU cache — the bounded form of every server-side
    table ({!Server}'s contexts and warm-session pool).

    Each entry carries a caller-supplied byte weight; {!add} evicts from
    the least-recently-used end until the new entry fits the byte
    budget, and returns what it evicted so the caller can cascade
    (dropping a context also drops the warm sessions built over it). An
    entry heavier than the whole budget is not cached at all — caching
    it would evict everything for a value that can never be hit again
    before it is itself evicted.

    Not thread-safe: the serve path mutates its caches only from the
    serial prepare/post passes (single writer), so the structure carries
    no lock. *)

type 'a t

(** [create ~budget] is an empty cache holding at most [budget] bytes
    (a non-positive budget caches nothing).*)
val create : budget:int -> 'a t

val budget : 'a t -> int

(** [used_bytes t] is the sum of the weights of the live entries. *)
val used_bytes : 'a t -> int

(** [length t] is the number of live entries. *)
val length : 'a t -> int

(** [evictions t] counts entries evicted by {!add} since [create]
    (explicit {!remove}s are not counted). *)
val evictions : 'a t -> int

(** [find t key] is the entry's value and marks it most recently
    used. *)
val find : 'a t -> string -> 'a option

(** [peek t key] is {!find} without the recency touch. *)
val peek : 'a t -> string -> 'a option

val mem : 'a t -> string -> bool

(** [add t key v ~bytes] inserts (or replaces — replacement does not
    count as an eviction) the entry, marks it most recently used, and
    evicts least-recently-used entries until the budget holds; the
    evicted [(key, value)] pairs are returned in eviction order
    (least-recently-used first). When [bytes] alone exceeds the budget
    the entry is {e not}
    inserted and nothing is evicted.
    @raise Invalid_argument when [bytes < 0]. *)
val add : 'a t -> string -> 'a -> bytes:int -> (string * 'a) list

(** [remove t key] drops the entry if present (not an eviction). *)
val remove : 'a t -> string -> unit

(** [iter f t] folds over live entries, most-recently-used first. *)
val iter : (string -> 'a -> unit) -> 'a t -> unit
