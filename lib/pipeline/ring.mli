(** Lock-free bounded MPMC ring with per-slot sequence numbers.

    The contention-free twin of {!Mpsc}: same bounded-queue contract
    (blocking {!push} backpressure, {!close}/{!reopen} with backlog
    preservation, batch pops), but producers claim slots by CAS on a
    padded tail cursor and consumers claim whole runs by CAS on a padded
    head cursor — no mutex anywhere on the hot path, 0 bytes allocated
    per element through {!try_push}/{!try_pop_into}. Multiple concurrent
    consumers are safe by construction, which is what the engine's batch
    work-stealing is built on: a "steal" is a {!try_pop_into} issued by a
    non-owner shard worker.

    Blocking variants spin a short budget then park on a condition
    variable, so oversubscribed feeders release the core instead of
    spinning — see ring.ml for the memory-ordering argument and
    docs/PERFORMANCE.md for the slot-layout diagram.

    Element values are stored in a plain array and published through the
    slot's atomic sequence number (release on push, acquire on pop). *)

type 'a t

val create : capacity:int -> 'a t
(** The slot array is rounded up to a power of two, at least 2, but
    [capacity] itself is enforced exactly, matching {!Mpsc} backpressure
    semantics.
    @raise Invalid_argument if [capacity <= 0]. *)

val push : 'a t -> 'a -> bool
(** Spin-then-park while full; [false] iff the queue is (or becomes)
    closed — the element was not enqueued. Any number of producers. *)

val push_many : 'a t -> 'a array -> pos:int -> len:int -> int
(** {!push} of [src.(pos .. pos+len-1)] in order; returns how many were
    enqueued ([len], or fewer iff the queue is or becomes closed).
    @raise Invalid_argument if the span is out of [src]'s bounds. *)

val try_push : 'a t -> 'a -> [ `Ok | `Full | `Closed ]
(** Non-blocking, lock-free, allocation-free. [`Full] may be transient
    (a claimed-but-not-yet-recycled slot): callers that must enqueue use
    {!push}. *)

val try_pop_into : 'a t -> 'a array -> max:int -> int
(** Claim up to [min max (Array.length buf)] elements with one CAS and
    copy them into [buf.(0..n-1)], FIFO. Returns the count: [0] means
    empty-but-open, [-1] means closed and drained. Safe under any number
    of concurrent callers — this is the steal operation. Allocation-free.
    @raise Invalid_argument if [max <= 0]. *)

val pop_into : 'a t -> 'a array -> max:int -> int
(** Blocking {!try_pop_into}: spin-then-park while empty and open.
    Returns [n > 0], or [-1] iff closed and drained. *)

val pop : 'a t -> 'a option
(** Blocking single pop; [None] iff closed and drained. *)

val pop_batch : 'a t -> max:int -> 'a list
(** Blocking batch pop as a list — contract parity with {!Mpsc}; the
    engine's hot path uses {!pop_into} instead (lists cost a cell per
    element). [[]] iff closed and drained.
    @raise Invalid_argument if [max <= 0]. *)

val close : 'a t -> unit
(** Idempotent. Producers fail fast; consumers drain the backlog then see
    the end mark. Wakes every parked producer and consumer. *)

val reopen : 'a t -> unit
(** Undo {!close}: the backlog queued at close time is still in the
    slots, in order — the supervisor hands a crashed shard's backlog to
    the restarted worker through this. Idempotent. *)

val drain_remaining : 'a t -> int
(** Discard whatever is queued and return the count. Intended for
    quiesced queues (the engine calls it after joining workers); under
    concurrent producers the count is a snapshot, not a fixpoint. *)

val length : 'a t -> int
(** Approximate by design: head and tail are read at different instants
    (documented relaxed read — exact only at quiescence). Never negative. *)

val size : 'a t -> int
(** Physical slot count (the rounded-up power of two). *)

val is_closed : 'a t -> bool
