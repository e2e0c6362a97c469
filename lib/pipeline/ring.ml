(* Lock-free bounded MPMC ring buffer with per-slot sequence numbers.

   The layout is the classic Vyukov bounded queue (the design Saturn's
   bounded_queue and countless C++ runtimes use): a power-of-two slot
   array, a [tail] cursor producers claim slots from with CAS, a [head]
   cursor consumers claim slots from with CAS, and one sequence number per
   slot that carries the slot's phase:

     seq = pos          slot free, next writable at position [pos]
     seq = pos + 1      slot filled by the push at position [pos]
     seq = pos + size   slot recycled, next writable at position [pos+size]

   A producer CASes [tail] forward only after seeing its slot free, then
   publishes the value with a plain store followed by the seq store — the
   seq is the release fence a consumer acquires. Symmetrically a consumer
   (there can be several: shard owners AND batch thieves pop from the same
   end — see below) first scans the contiguous run of already-published
   seqs from [head], then CASes [head] forward by that run in one shot and
   copies the values out, recycling slots behind it. Claiming only the
   published prefix (rather than textbook claim-then-await) matters on an
   oversubscribed host: a consumer never blocks behind a producer that was
   descheduled between its tail CAS and its seq store — it sees "empty for
   now" and retries instead. Head and tail live in separately padded atomics
   ({!Conc.Padding}) so producers and consumers never false-share; the
   per-slot seqs are intentionally unpadded — batch claiming touches them
   sequentially, so they behave like a streamed array, not hot cells.

   Unlike the textbook queue this one is *bounded twice*: the slot array is
   rounded up to a power of two for mask arithmetic, but the logical
   [capacity] the caller asked for is enforced exactly ([tail - head >=
   capacity] is Full), so swapping it in for the mutex {!Mpsc} never
   changes backpressure semantics.

   Stealing: work-stealing deques (Chase–Lev, the Manticore runtime's
   local deques) give the *owner* a private LIFO end precisely because
   their producer is the owner itself. Our shard queues are multi-producer
   (any feeder pushes into any shard), so the tail end belongs to
   producers and cannot double as the owner's private end. Instead both
   the owner and thieves pop from the head with the same CAS claim —
   "steal" is just a pop by a non-owner, whole batches per CAS. The
   common, uncontended case (no thief) costs the owner one CAS per batch;
   under skew, thieves contend on the head CAS only with each other and
   with the (starved, hence slow) owner. FIFO order per queue holds for
   whoever pops, but with several poppers the *processing* interleaving
   across poppers is unordered — fine for the pipeline, whose merge
   algebra is commutative.

   Blocking: producers on Full and consumers on Empty first spin a short
   budget (cpu_relax), then park on a plain mutex+condition pair. The
   fast path never touches the mutex: wakers broadcast only when the
   padded [waiters] count is non-zero. The no-lost-wakeup argument is the
   usual eventcount one and leans on OCaml atomics being SC: a parker
   (a) increments [waiters] (b) re-checks the queue state and only then
   waits; a waker (c) changes the state (d) reads [waiters]. If (d) reads
   the pre-(a) value then (d) < (a) < (b) in the SC total order, so (b)
   sees the state change from (c) and the parker never sleeps.

   Progress obligations: a producer that CASed [tail] MUST complete the
   value+seq stores (consumers treat the gap as transient emptiness and
   poll it away). That holds here because nothing in the window can raise
   and the engine's chaos kills are exceptions thrown from explicit hook
   points, never asynchronously. *)

type 'a t = {
  mask : int; (* slot-array size - 1 (size is a power of two) *)
  capacity : int; (* logical bound, enforced exactly *)
  seq : int Atomic.t array;
  vals : 'a array; (* plain stores, published/acquired via [seq] *)
  dummy : 'a; (* fills recycled slots so popped values are not retained *)
  tail : int Atomic.t; (* next push position; padded *)
  head : int Atomic.t; (* next pop position; padded *)
  closed : bool Atomic.t; (* padded *)
  waiters : int Atomic.t; (* parked producers + consumers; padded *)
  pm : Mutex.t;
  pc : Condition.t;
}

let spin_budget = 64 (* cpu_relax rounds before parking/yielding *)

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  (* At least two slots: with one, a slot's recycled seq (pos + size)
     equals its published seq (pos + 1), so a producer can claim the slot
     between a consumer's head CAS and its copy, and the consumer then
     copies the new value and overwrites its publish. *)
  let size =
    let rec up n = if n >= capacity then n else up (n * 2) in
    up 2
  in
  {
    mask = size - 1;
    capacity;
    seq = Array.init size (fun i -> Atomic.make i);
    vals = Array.make size (Obj.magic () : 'a);
    dummy = (Obj.magic () : 'a);
    tail = Conc.Padding.atomic 0;
    head = Conc.Padding.atomic 0;
    closed = Conc.Padding.atomic false;
    waiters = Conc.Padding.atomic 0;
    pm = Mutex.create ();
    pc = Condition.create ();
  }

let size t = t.mask + 1

(* Approximate by construction: head and tail are read at different
   instants, so the result can lag either cursor. Callers that need an
   exact count must quiesce first (the engine's drain does). *)
let length t = max 0 (Atomic.get t.tail - Atomic.get t.head)

let is_closed t = Atomic.get t.closed

(* Broadcast-on-demand: the hot paths only pay an uncontended atomic read.
   Both producer and consumer waiters share one condition — parks are the
   cold path, and a spurious wake just re-checks and re-parks. *)
let wake t =
  if Atomic.get t.waiters > 0 then begin
    Mutex.lock t.pm;
    Condition.broadcast t.pc;
    Mutex.unlock t.pm
  end

(* [park t blocked] sleeps until [blocked] turns false or a waker
   broadcasts. [blocked] must read only atomics (it runs both outside and
   under [pm]). *)
let park t blocked =
  Mutex.lock t.pm;
  Atomic.incr t.waiters;
  (* Re-check AFTER the increment: SC ordering vs. the waker's
     state-change-then-read-waiters makes a lost wakeup impossible. *)
  if blocked () then Condition.wait t.pc t.pm;
  Atomic.decr t.waiters;
  Mutex.unlock t.pm

(* The hot paths below are deliberately written as top-level tail-recursive
   functions over unboxed arguments: a `let rec` nested inside the entry
   point compiles to a heap-allocated closure on every call (the classical
   compiler does not lift it), and the whole point of the ring is a 0 B/op
   push/pop cycle — the bench's allocation audit pins exactly that. *)

let rec push_attempt t x =
  let tail = Atomic.get t.tail in
  if tail - Atomic.get t.head >= t.capacity then
    if Atomic.get t.closed then `Closed else `Full
  else begin
    let i = tail land t.mask in
    let s = Atomic.get t.seq.(i) in
    if s = tail then
      if Atomic.compare_and_set t.tail tail (tail + 1) then begin
        (* We own slot [i] for position [tail]: plain value store,
           released by the seq store. *)
        Array.unsafe_set t.vals i x;
        Atomic.set t.seq.(i) (tail + 1);
        wake t;
        `Ok
      end
      else push_attempt t x (* lost the CAS race: another producer took it *)
    else if s < tail then
      (* The previous lap's value is still in the slot: a consumer
         claimed but has not recycled it yet. Capacity-wise there may
         be room any moment; report Full and let the caller's
         spin/park loop absorb the transient. *)
      if Atomic.get t.closed then `Closed else `Full
    else push_attempt t x (* s > tail: our tail read was stale *)
  end

let try_push t x = if Atomic.get t.closed then `Closed else push_attempt t x

let rec push_loop t x spins =
  match push_attempt t x with
  | `Ok -> true
  | `Closed -> false
  | `Full ->
      if spins < spin_budget then begin
        Domain.cpu_relax ();
        push_loop t x (spins + 1)
      end
      else begin
        park t (fun () ->
            Atomic.get t.tail - Atomic.get t.head >= t.capacity
            && not (Atomic.get t.closed));
        push_loop t x 0
      end

let push t x = if Atomic.get t.closed then false else push_loop t x 0

(* The ring has no lock to amortize: a span is a loop of {!push}. *)
let rec push_from t src pos len i =
  if i < len && push t (Array.unsafe_get src (pos + i)) then
    push_from t src pos len (i + 1)
  else i

let push_many t src ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length src - len then
    invalid_arg "Ring.push_many: span out of bounds";
  push_from t src pos len 0

(* Count the contiguous run of already-published positions starting at
   [head]: claiming only that run means the copy loop after a winning CAS
   never has to await a producer mid-publish — on an oversubscribed host a
   claim-then-await design stalls every consumer behind one descheduled
   producer, while claim-published turns the same situation into a plain
   "empty for now". *)
let rec published_run t head n limit =
  if n >= limit then n
  else
    let pos = head + n in
    if Atomic.get t.seq.(pos land t.mask) = pos + 1 then
      published_run t head (n + 1) limit
    else n

let rec pop_attempt t buf max =
  let head = Atomic.get t.head in
  let avail = Atomic.get t.tail - head in
  if avail <= 0 then
    if not (Atomic.get t.closed) then 0
    else if Atomic.get t.tail = head then -1 (* closed and drained *)
    else pop_attempt t buf max (* racing push completed after the close *)
  else begin
    let n = published_run t head 0 (min max avail) in
    if n = 0 then
      (* Claimed but not yet published: momentarily empty from here.
         The claimant is obligated to finish, so callers just retry. *)
      0
    else if Atomic.compare_and_set t.head head (head + n) then begin
      (* Winning the CAS means no other consumer claimed these positions,
         so the seqs we just saw at pos+1 still stand (only a claimant
         recycles a slot): every value is published, copy without waiting. *)
      for j = 0 to n - 1 do
        let pos = head + j in
        let i = pos land t.mask in
        Array.unsafe_set buf j (Array.unsafe_get t.vals i);
        Array.unsafe_set t.vals i t.dummy;
        Atomic.set t.seq.(i) (pos + t.mask + 1)
      done;
      wake t;
      n
    end
    else pop_attempt t buf max
  end

(* Claim up to [max] published positions with one head CAS and copy them
   out. Runs concurrently with other claimers (owner + thieves) and with
   producers. *)
let try_pop_into t buf ~max =
  if max <= 0 then invalid_arg "Ring.try_pop_into: max must be positive";
  pop_attempt t buf (min max (Array.length buf))

let rec pop_into_loop t buf max spins =
  match pop_attempt t buf max with
  | 0 ->
      if spins < spin_budget then begin
        Domain.cpu_relax ();
        pop_into_loop t buf max (spins + 1)
      end
      else if Atomic.get t.tail - Atomic.get t.head > 0 then begin
        (* Non-empty but nothing published: the pending producer needs the
           core more than we do, so yield rather than park (the park
           predicate is on emptiness and would fall straight through). *)
        Unix.sleepf 0.0;
        pop_into_loop t buf max 0
      end
      else begin
        park t (fun () ->
            Atomic.get t.tail = Atomic.get t.head
            && not (Atomic.get t.closed));
        pop_into_loop t buf max 0
      end
  | n -> n

let pop_into t buf ~max =
  if max <= 0 then invalid_arg "Ring.pop_into: max must be positive";
  pop_into_loop t buf (min max (Array.length buf)) 0

(* List variants, for contract parity with {!Mpsc} (tests, drains). The
   hot paths use the [_into] forms — a list cell per element is exactly
   the allocation the ring exists to avoid. *)
let pop_batch t ~max =
  if max <= 0 then invalid_arg "Ring.pop_batch: max must be positive";
  let buf = Array.make max t.dummy in
  match pop_into t buf ~max with
  | -1 -> []
  | n -> Array.to_list (Array.sub buf 0 n)

let pop t = match pop_batch t ~max:1 with [] -> None | x :: _ -> Some x

let close t =
  Atomic.set t.closed true;
  (* Unconditional broadcast: close must win every park race. *)
  Mutex.lock t.pm;
  Condition.broadcast t.pc;
  Mutex.unlock t.pm

let reopen t =
  Atomic.set t.closed false;
  (* Whatever survived the close is still in the slots, in order: a
     restarted consumer picks up exactly where the dead one left off. *)
  Mutex.lock t.pm;
  Condition.broadcast t.pc;
  Mutex.unlock t.pm

let drain_remaining t =
  let buf = Array.make 64 t.dummy in
  let n = ref 0 in
  let rec go () =
    match try_pop_into t buf ~max:64 with
    | -1 | 0 -> !n
    | k ->
        n := !n + k;
        go ()
  in
  go ()
