(** Wire codec for the sequential CountMin sketch.

    Serializes the full state: dimensions, the hash family's coin-flip
    coefficients, the stream length and the counter matrix — decode is the
    exact inverse of encode (same coins, same cells, same answers).

    {!encode} writes one canonical image, kind [countmin-sparse]: only the
    nonzero counters, as LEB128 (index gap, value) pairs in row-major
    order. It is smaller than the legacy dense image (a fixed 8 bytes per
    counter) for every sketch, full ones included, and one spelling per
    sketch keeps byte equality of encodings a state equality. {!decode}
    also reads the legacy dense kind [countmin], which older WAL segments
    and checkpoints hold. *)

val kind : int
(** {!Codec.countmin_sparse_kind}, the kind {!encode} writes. *)

val encode : Sketches.Countmin.t -> Bytes.t
(** @raise Invalid_argument if the sketch's family was built with
    {!Hashing.Family.of_mapping} (arbitrary closures are unserializable),
    or it has more than 2{^24} counters. *)

val decode : Bytes.t -> (Sketches.Countmin.t, Codec.error) result
(** Never raises; see {!Codec.decode}. A header claiming more than 2{^24}
    counters is [Corrupt] in either layout, before any allocation. A
    sparse image whose cell index reaches rows·width, whose value is zero,
    whose varint overflows, or whose count of nonzero cells exceeds
    rows·width is [Corrupt]. *)
