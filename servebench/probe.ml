(* Measurement plumbing for the served-path benchmark: an allocation-free
   monotonic nanosecond clock, per-domain accumulators, a timing wrapper
   around a mergeable sketch, percentiles and JSON output. Everything here
   measures from outside the library: it wraps the public [Mergeable.S]
   functions the engine, replica and recovery call, and nothing else. *)

(* CLOCK_MONOTONIC through the stub bechamel already ships. Declared here
   with an unboxed result so a clock read never allocates: the generator
   loop reads it every chunk of pushes and must not trigger minor GCs, which
   stop every domain in the process. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

(* Referencing the library keeps its C stubs on the link line. *)
let () = ignore (Monotonic_clock.now ())

(* Cost of one back-to-back pair of clock reads, subtracted from timings of
   calls so short (a Counter update is ~10 ns) that the reads dominate. *)
let clock_overhead_ns =
  lazy
    (let best = ref max_int in
     for _ = 1 to 10_000 do
       let a = now_ns () in
       let b = now_ns () in
       if b - a < !best then best := b - a
     done;
     !best)

(* A per-domain accumulator: each domain bumps its own cell with plain
   stores, so counting costs no atomic and shares no cache line. [total]
   sums the cells; read it after the writers are joined for exact values,
   or mid-run for racy but monotone ones. *)
module Acc = struct
  type cell = {
    mutable calls : int;
    mutable timed : int;  (** calls whose duration is in [ns] *)
    mutable ns : int;
    mutable bytes : int;
  }

  type t = { key : cell Domain.DLS.key; m : Mutex.t; cells : cell list ref }

  let create () =
    let m = Mutex.create () and cells = ref [] in
    let key =
      Domain.DLS.new_key (fun () ->
          let c = { calls = 0; timed = 0; ns = 0; bytes = 0 } in
          Mutex.protect m (fun () -> cells := c :: !cells);
          c)
    in
    { key; m; cells }

  let cell t = Domain.DLS.get t.key
  let zero = { calls = 0; timed = 0; ns = 0; bytes = 0 }

  let total t =
    Mutex.protect t.m (fun () ->
        List.fold_left
          (fun (a : cell) (c : cell) ->
            {
              calls = a.calls + c.calls;
              timed = a.timed + c.timed;
              ns = a.ns + c.ns;
              bytes = a.bytes + c.bytes;
            })
          zero !(t.cells))

  let diff (b : cell) (a : cell) =
    {
      calls = b.calls - a.calls;
      timed = b.timed - a.timed;
      ns = b.ns - a.ns;
      bytes = b.bytes - a.bytes;
    }
end

(* The sketch as the benchmark needs it: the pipeline contract plus the
   point estimate that [eval] serves and the output checks compare. *)
module type SKETCH = sig
  include Pipeline.Mergeable.S

  val estimate : t -> int -> int
end

type probes = {
  updates : Acc.t;  (** all calls counted, one in 64 timed *)
  encodes : Acc.t;  (** every call timed; [bytes] sums blob sizes *)
  decodes : Acc.t;
  merges : Acc.t;
}

module type PROBED = sig
  include SKETCH

  val probes : probes option
  (** [None] for the untraced run: the sketch is called directly. *)
end

module Plain (S : SKETCH) : PROBED with type t = S.t = struct
  include S

  let probes = None
end

(* One instance per role (leader, replica, recovery): the generative
   application gives each its own accumulators. *)
module Timed (S : SKETCH) () : PROBED with type t = S.t = struct
  include S

  let p =
    {
      updates = Acc.create ();
      encodes = Acc.create ();
      decodes = Acc.create ();
      merges = Acc.create ();
    }

  let probes = Some p

  let update t x =
    let c = Acc.cell p.updates in
    c.calls <- c.calls + 1;
    if c.calls land 63 = 0 then begin
      let t0 = now_ns () in
      S.update t x;
      c.ns <- c.ns + (now_ns () - t0);
      c.timed <- c.timed + 1
    end
    else S.update t x

  (* The engine calls this only with [combine], which the benchmark leaves
     off. *)
  let update_many = S.update_many

  let timed acc f =
    let t0 = now_ns () in
    let r = f () in
    let c = Acc.cell acc in
    c.ns <- c.ns + (now_ns () - t0);
    c.calls <- c.calls + 1;
    c.timed <- c.timed + 1;
    r

  let encode t =
    let b = timed p.encodes (fun () -> S.encode t) in
    let c = Acc.cell p.encodes in
    c.bytes <- c.bytes + Bytes.length b;
    b

  let decode b = timed p.decodes (fun () -> S.decode b)
  let merge a b = timed p.merges (fun () -> S.merge a b)
end

(* ---------------------------- statistics ---------------------------- *)

(* Nearest-rank percentile of the first [n] entries of [a] (copied). *)
let percentile a n q =
  if n <= 0 then 0
  else begin
    let s = Array.sub a 0 n in
    Array.sort compare s;
    let r = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) r))
  end

(* A p[q] is reported only with at least ten samples beyond it. *)
let supports n q = float_of_int n *. (1.0 -. q) >= 10.0

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------- JSON ------------------------------- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json) list

let rec to_json buf = function
  | Num f ->
      (* every digit as measured; non-finite values are caught before
         printing, JSON has no spelling for them *)
      Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Str s ->
      (* only fixed keys, units and workload names: nothing to escape *)
      Buffer.add_char buf '"';
      Buffer.add_string buf s;
      Buffer.add_char buf '"'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          to_json buf (Str k);
          Buffer.add_string buf ": ";
          to_json buf v)
        kvs;
      Buffer.add_char buf '}'

let json_line j =
  let buf = Buffer.create 1024 in
  to_json buf j;
  Buffer.contents buf
