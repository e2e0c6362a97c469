(** The contract a sketch must meet to ride the sharded ingestion pipeline.

    A [t] plays two roles: the {e shard-local delta} each worker accumulates
    (born empty via [create], fed by [update], handed to the merger as the
    object itself), and the {e global sketch} the merger folds deltas into
    with [merge]. The pipeline is correct for any summary where merge is
    associative and commutative with [create ()] as identity — the
    "mergeable summaries" algebra (Agarwal et al.) that every sketch in this
    repository satisfies; the merge-algebra property tests pin it down.

    [encode]/[decode] are for bytes that leave the process. Inside it the
    shard and the merger share one address space, so no delta is
    serialized on its way to the merger. A delta is encoded once, by its
    worker, only when the engine has an [on_merge] consumer (the WAL,
    replication); checkpoints and snapshots encode the global. Decoding
    happens on WAL replay, at a replica and at a checkpoint load. The codecs
    are exercised on those paths and by the round-trip and corruption tests,
    which keep them honest without a hot-path round trip. *)

module type S = sig
  type t

  val name : string
  (** Short human-readable sketch name, for reports. *)

  val create : unit -> t
  (** A fresh empty delta. All deltas (and the global) must share hash
      parameters so that [merge] never rejects a sibling. *)

  val update : t -> int -> unit
  (** Fold one stream element into a delta. *)

  val update_many : t -> int -> count:int -> unit
  (** Fold [count] occurrences of one element into a delta, equivalent to
      [count] calls to [update] but allowed to be (much) cheaper — this is
      what the engine's combining buffer rides: a batch's duplicate keys
      are aggregated shard-locally and folded in one call each.
      Duplicate-insensitive sketches treat any [count > 0] as a single
      [update]; [count = 0] is a no-op.
      @raise Invalid_argument if [count < 0]. *)

  val merge : t -> t -> t
  (** Combine two summaries; neither input is mutated.
      @raise Invalid_argument on incompatible parameters (a pipeline bug —
      all deltas come from [create]). *)

  val encode : t -> Bytes.t
  (** Serialize a delta or the global sketch — a WAL record, a checkpoint,
      a replication frame. The same state must always give the same bytes:
      replicas are checked against their leader by comparing encodings. *)

  val decode : Bytes.t -> (t, Wire.Codec.error) result
  (** Deserialize; never raises. An [Error] on WAL replay counts as a
      recovery decode failure (and loses that record). *)
end
