(** Shared constructors for int-typed histories used across the test suite.

    Operations are over quantitative objects with integer update arguments,
    integer query arguments, and integer return values — the shape of both
    the batched counter (query argument ignored) and CountMin (argument =
    element). *)

type iop = (int, int, int) Hist.Op.t
type ievent = (int, int, int) Hist.History.event
type ihistory = (int, int, int) Hist.History.t

let upd ?(proc = 0) ?(obj = 0) ~id u : iop =
  { Hist.Op.id; proc; obj; kind = Hist.Op.Update u; ret = None }

let qry ?(proc = 0) ?(obj = 0) ?ret ~id q : iop =
  { Hist.Op.id; proc; obj; kind = Hist.Op.Query q; ret }

let inv op : ievent = Hist.History.inv op

let rsp ?ret op : ievent = Hist.History.rsp ?ret op

let hist evs : ihistory = Hist.History.of_events evs

(* A sequential history from (op, optional return) pairs. *)
let seq ops : ihistory = Hist.History.of_sequential_ops ops

let pp_int = Format.pp_print_int

let show_history h =
  Format.asprintf "%a" (Hist.History.pp ~pp_u:pp_int ~pp_q:pp_int ~pp_v:pp_int) h

(* Random well-formed concurrent history generator: interleaves per-process
   sequential operation streams under a seeded scheduler. [mk_op ~proc ~id]
   supplies the operations, so each test controls the op/return mix. *)
let gen_history ~seed ~procs ~per_proc ~mk_op =
  let g = Rng.Splitmix.create seed in
  let next_id = ref 0 in
  let queues =
    Array.init procs (fun p ->
        ref
          (List.init per_proc (fun _ ->
               incr next_id;
               mk_op g ~proc:p ~id:!next_id)))
  in
  let in_flight = Array.make procs None in
  let events = ref [] in
  let rec drain () =
    let busy = ref [] in
    for p = procs - 1 downto 0 do
      if in_flight.(p) <> None || !(queues.(p)) <> [] then busy := p :: !busy
    done;
    match !busy with
    | [] -> ()
    | ps ->
        let p = List.nth ps (Rng.Splitmix.next_int g (List.length ps)) in
        (match in_flight.(p) with
        | Some op ->
            events := Hist.History.rsp ?ret:op.Hist.Op.ret op :: !events;
            in_flight.(p) <- None
        | None -> (
            match !(queues.(p)) with
            | [] -> ()
            | op :: rest ->
                queues.(p) := rest;
                events := Hist.History.inv op :: !events;
                in_flight.(p) <- Some op));
        drain ()
  in
  drain ();
  Hist.History.of_events (List.rev !events)

(* The standard counter-history mix used by several suites: random batches,
   random (sometimes impossible) query returns. *)
let gen_counter_history seed =
  let g0 = Rng.Splitmix.create seed in
  let procs = 1 + Rng.Splitmix.next_int g0 3 in
  let per_proc = 1 + Rng.Splitmix.next_int g0 3 in
  gen_history ~seed:(Rng.Splitmix.next_int64 g0) ~procs ~per_proc
    ~mk_op:(fun g ~proc ~id ->
      if Rng.Splitmix.next_bool g then upd ~proc ~id (Rng.Splitmix.next_int g 4)
      else qry ~proc ~ret:(Rng.Splitmix.next_int g 8) ~id 0)

(* A mergeable sketch (the pipeline's [Mergeable.S], matched structurally)
   that keeps every key it absorbed, so a test can read back what an engine
   folded and in which order. Stored newest first; [merge a b]
   is "a, then b". *)
module Bag = struct
  type t = int list ref

  let name = "bag"
  let create () = ref []
  let update t x = t := x :: !t

  let update_many t x ~count =
    for _ = 1 to count do
      update t x
    done

  let merge a b = ref (!b @ !a)
  let encode t = Bytes.of_string (Marshal.to_string !t [])
  let decode b = Ok (ref (Marshal.from_bytes b 0))
end
