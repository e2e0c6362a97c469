(* The shard-queue seam: one sum type over the two bounded-queue
   implementations so the engine (and anything else that moves elements
   between pipeline domains) selects the transport at construction time
   and pays exactly one well-predicted branch per operation afterwards.

   [`Mutex] is {!Mpsc} — the reference implementation: simple, fair
   enough, blocking waits release the core immediately. [`Lockfree] is
   {!Ring} — CAS cursors on padded atomics, allocation-free hot paths,
   multi-consumer batch pops (the steal substrate). Keeping both behind
   one type is deliberate: the queue-contract property suite runs against
   this module with each constructor, so the two implementations cannot
   drift apart semantically. *)

type impl = [ `Mutex | `Lockfree ]

type 'a t = Mutex of 'a Mpsc.t | Lockfree of 'a Ring.t

let impl_of_string = function
  | "mutex" -> Some `Mutex
  | "lockfree" -> Some `Lockfree
  | _ -> None

let impl_to_string = function `Mutex -> "mutex" | `Lockfree -> "lockfree"

let create ~impl ~capacity =
  match impl with
  | `Mutex -> Mutex (Mpsc.create ~capacity)
  | `Lockfree -> Lockfree (Ring.create ~capacity)

let impl = function Mutex _ -> `Mutex | Lockfree _ -> `Lockfree

let push t x =
  match t with Mutex q -> Mpsc.push q x | Lockfree q -> Ring.push q x

let push_many t src ~pos ~len =
  match t with
  | Mutex q -> Mpsc.push_many q src ~pos ~len
  | Lockfree q -> Ring.push_many q src ~pos ~len

let try_push t x =
  match t with Mutex q -> Mpsc.try_push q x | Lockfree q -> Ring.try_push q x

let pop t = match t with Mutex q -> Mpsc.pop q | Lockfree q -> Ring.pop q

let pop_batch t ~max =
  match t with
  | Mutex q -> Mpsc.pop_batch q ~max
  | Lockfree q -> Ring.pop_batch q ~max

let try_pop_into t buf ~max =
  match t with
  | Mutex q -> Mpsc.try_pop_into q buf ~max
  | Lockfree q -> Ring.try_pop_into q buf ~max

let pop_into t buf ~max =
  match t with
  | Mutex q -> Mpsc.pop_into q buf ~max
  | Lockfree q -> Ring.pop_into q buf ~max

let close t = match t with Mutex q -> Mpsc.close q | Lockfree q -> Ring.close q

let reopen t =
  match t with Mutex q -> Mpsc.reopen q | Lockfree q -> Ring.reopen q

let drain_remaining t =
  match t with
  | Mutex q -> Mpsc.drain_remaining q
  | Lockfree q -> Ring.drain_remaining q

let length t =
  match t with Mutex q -> Mpsc.length q | Lockfree q -> Ring.length q

let length_relaxed t =
  match t with
  | Mutex q -> Mpsc.length_relaxed q
  | Lockfree q -> Ring.length q

let is_closed t =
  match t with Mutex q -> Mpsc.is_closed q | Lockfree q -> Ring.is_closed q
