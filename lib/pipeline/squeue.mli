(** Queue-implementation selector: the bounded-MPSC contract of {!Mpsc}
    dispatching over either the mutex reference implementation or the
    lock-free {!Ring}, chosen at {!create} time.

    The engine routes every shard queue and the merger queue through this
    seam (its [?queue] knob); the queue-contract test suite instantiates
    it with both constructors so the implementations stay behaviourally
    interchangeable. Operation semantics are documented on {!Mpsc} and
    {!Ring}; the only divergences are documented relaxations of the
    lock-free side: {!length} is approximate for [`Lockfree], and with
    several concurrent consumers (stealing) per-queue FIFO holds for the
    union of pops but not for any single consumer's view. *)

type impl = [ `Mutex | `Lockfree ]

type 'a t

val create : impl:impl -> capacity:int -> 'a t
(** @raise Invalid_argument if [capacity <= 0]. *)

val impl : 'a t -> impl

val impl_of_string : string -> impl option
(** ["mutex"] / ["lockfree"] — the CLI spelling. *)

val impl_to_string : impl -> string

val push : 'a t -> 'a -> bool

val push_many : 'a t -> 'a array -> pos:int -> len:int -> int
(** Blocking push of [src.(pos .. pos+len-1)] in order; returns how many
    were enqueued ([len], or fewer iff the queue is or becomes closed).
    [`Mutex] takes the lock once for the span; [`Lockfree] loops
    {!Ring.push}.
    @raise Invalid_argument if the span is out of [src]'s bounds. *)

val try_push : 'a t -> 'a -> [ `Ok | `Full | `Closed ]
val pop : 'a t -> 'a option
val pop_batch : 'a t -> max:int -> 'a list

val try_pop_into : 'a t -> 'a array -> max:int -> int
(** Non-blocking batch pop into a caller-owned buffer ([0] = empty,
    [-1] = closed and drained). Safe from any domain for both
    implementations — the steal operation. Allocation-free. *)

val pop_into : 'a t -> 'a array -> max:int -> int
(** Blocking {!try_pop_into} ([n > 0], or [-1] iff closed and drained). *)

val close : 'a t -> unit
val reopen : 'a t -> unit
val drain_remaining : 'a t -> int

val length : 'a t -> int
(** Exact for [`Mutex]; approximate (relaxed cursor reads) for
    [`Lockfree]. *)

val length_relaxed : 'a t -> int
(** Approximate for both: never takes the lock, never contends. *)

val is_closed : 'a t -> bool
