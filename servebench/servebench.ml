(* The served-path benchmark: one process drives
   Net.Client -> Net.Server -> Pipeline.Engine -> on_merge hook ->
   Durable.Wal -> Net.Replica over loopback, checks the outputs, and prints
   one JSON result line. See README.md beside this file for the workloads,
   the metric definitions and the per-layer ledger.

   Usage:
     servebench --workload NAME --seed N --seconds S --trace 0|1 *)

open Probe

(* ----------------------------- workloads ---------------------------- *)

type sketch = Countmin | Counter
type dist = Zipf of float | Uniform

type workload = {
  name : string;
  sketch : sketch;
  dist : dist;
  warmup : int;  (** items ingested before the timed window *)
  wal_records : int;  (** records in the log each timed start recovers *)
}

(* Why each exists is in README.md. Each warm-up lasts half a second to a
   second at the workload's own rate. Each log holds 512-item records of the
   seed's stream, sized so that replaying it takes a few tenths of a second:
   ~10^6 items of 32 KiB CountMin deltas, ~10^8 items of few-byte counter
   deltas. *)
let workloads =
  [
    {
      name = "ingest-countmin-zipf";
      sketch = Countmin;
      dist = Zipf 1.1;
      warmup = 262_144;
      wal_records = 1953;
    };
    {
      name = "ingest-counter-uniform";
      sketch = Counter;
      dist = Uniform;
      warmup = 1_048_576;
      wal_records = 195_313;
    };
  ]

let universe = 100_000
let shards = 2
let engine_batch = 512
let client_batch = 256
let client_conns = 2 (* sender connections, both closed loop *)
let setup_reps = 5 (* leader starts timed per run; setup_s is their median *)
let key_pool = 1 lsl 20 (* ingest keys, cycled *)
let query_pool = 1 lsl 16
let chunk = 32 (* pushes per generator clock read *)
(* The window is cut into segments, each a quiet burst of queries followed
   by one second of closed-loop ingest. *)
let segment_s = 1.0
let burst_queries = 1000
let host = "127.0.0.1"

(* ------------------------------ sketches ---------------------------- *)

module Cm : SKETCH = struct
  include Pipeline.Targets.Countmin (struct
    let seed = 0x5EEDC0DEL
    let rows = 4
    let width = 1024
  end)

  let estimate = Sketches.Countmin.query
end

module Ct : SKETCH = struct
  include Pipeline.Targets.Counter

  (* A counter's only estimate is its total: an upper bound for every key. *)
  let estimate s _ = Sketches.Batched_counter.read s
end

(* ------------------------------- files ------------------------------ *)

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Hard links: a timed start gets its own copy of the log in no time, and
   recover_compact's deletion of replayed segments unlinks only the copy. *)
let link_dir ~src ~dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f -> Unix.link (Filename.concat src f) (Filename.concat dst f))
    (Sys.readdir src)

let wal_bytes dir =
  Array.fold_left
    (fun acc f ->
      if String.length f > 4 && String.sub f 0 4 = "wal-" then
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  let v = find () in
  close_in ic;
  v

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------ inputs ------------------------------ *)

type inputs = {
  w : workload;
  keys : int array;  (** [key_pool] ingest keys; item i uses keys.(i mod pool) *)
  qkeys : int array;  (** [query_pool] Point-query keys *)
  template : string;  (** pre-built WAL every timed start recovers *)
  template_bytes : int;
  work : string;
}

let materialise w seed =
  let master = Rng.Splitmix.create (Int64.of_int seed) in
  let wal_rng = Rng.Splitmix.split master in
  let key_rng = Rng.Splitmix.split master in
  let query_rng = Rng.Splitmix.split master in
  let draw =
    match w.dist with
    | Uniform -> fun rng -> Rng.Splitmix.next_int rng universe
    | Zipf s ->
        let z = Workload.Zipf.create ~n:universe ~s in
        fun rng -> Workload.Zipf.sample z rng
  in
  let keys = Array.init key_pool (fun _ -> draw key_rng) in
  (* queries follow the same skew, so hot keys are asked about most *)
  let qkeys = Array.init query_pool (fun _ -> draw query_rng) in
  (wal_rng, draw, keys, qkeys)

(* ------------------------------ results ----------------------------- *)

type metric = { mname : string; value : float; unit_ : string }

let m mname unit_ value = { mname; value; unit_ }

type outcome = {
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;
  samples : (string * int) list;
  mops : float;
}

(* Frame codec in isolation over the run's own 256-key batches. *)
let frame_bench keys =
  let nb = Array.length keys / client_batch in
  let batches =
    Array.init nb (fun b -> Array.sub keys (b * client_batch) client_batch)
  in
  let t0 = now_ns () in
  let frames =
    Array.mapi
      (fun seq keys ->
        Net.Frame.encode_request
          (Net.Frame.Batch { session = 1L; seq; ctx = Obs.Span.zero; keys }))
      batches
  in
  let t1 = now_ns () in
  Array.iter
    (fun f ->
      match Net.Frame.decode_request f with
      | Ok _ -> ()
      | Error _ -> failwith "frame roundtrip failed")
    frames;
  let t2 = now_ns () in
  let n = float_of_int (nb * client_batch) in
  (float_of_int (t1 - t0) /. n, float_of_int (t2 - t1) /. n)

(* --------------------------- the served path ------------------------ *)

module Instance (S : SKETCH) (L : PROBED with type t = S.t)
    (R : PROBED with type t = S.t) (Rc : PROBED with type t = S.t) =
struct
  module Srv = Net.Server.Make (L)
  module Rep = Net.Replica.Make (R)
  module Rec = Durable.Recovery.Make (Rc)

  type started = {
    dir : string;
    srv : Srv.t;
    rep : Rep.t;
    cli : Net.Client.t;
    wal : Durable.Wal.writer;
    lower : Bytes.t;  (** leader state right after start: the IVL floor *)
    base_published : int;
    replayed : int;
    setup_ns : int;
    replay_ns : int;
  }

  let wait_live rep epoch =
    let deadline = now_ns () + 20_000_000_000 in
    let rec go () =
      let s = Rep.stats rep in
      if s.Rep.epoch >= epoch && s.Rep.status = `Live then true
      else if now_ns () > deadline then false
      else begin
        Unix.sleepf 5e-5;
        go ()
      end
    in
    go ()

  let run (inp : inputs) ~traced ~window_s ~reps =
    let w = inp.w in
    let tracer_reg = if traced then Some (Obs.Registry.create ()) else None in
    let tracer =
      Option.map
        (fun reg -> Obs.Tracer.create ~sample_every:1 ~metrics:reg ())
        tracer_reg
    in
    (* Merge log, written by the merger domain through the hook and read
       after drain (Domain.join orders it): time, cumulative published
       weight since start, WAL append ns, fanout ns, replica lag. *)
    let cap = 1 lsl 19 in
    let mt = Array.make cap 0 and mp = Array.make cap 0 in
    let ma = Array.make (if traced then cap else 1) 0 in
    let mf = Array.make (if traced then cap else 1) 0 in
    let ml = Array.make (if traced then cap else 1) 0 in
    let nm = ref 0 and pub = ref 0 in
    let rep_cell = Atomic.make None in
    let evals = Array.make (if traced then 1 lsl 20 else 1) 0 in
    let n_evals = Atomic.make 0 in
    let eval s q =
      match q with
      | Net.Frame.Point k ->
          if traced then begin
            let t0 = now_ns () in
            let v = L.estimate s k in
            let i = Atomic.fetch_and_add n_evals 1 in
            if i < Array.length evals then evals.(i) <- now_ns () - t0;
            Some [ (k, v) ]
          end
          else Some [ (k, L.estimate s k) ]
      | _ -> None
    in
    let hook wal fanout ~ctx ~epoch ~weight ~blob =
      let t = now_ns () in
      pub := !pub + weight;
      let i = !nm in
      if i < cap then begin
        mt.(i) <- t;
        mp.(i) <- !pub;
        nm := i + 1
      end;
      if traced && i < cap then begin
        let a0 = now_ns () in
        Durable.Wal.append wal ~epoch ~weight ~blob;
        let a1 = now_ns () in
        fanout ~ctx ~epoch ~weight ~blob;
        let a2 = now_ns () in
        ma.(i) <- a1 - a0;
        mf.(i) <- a2 - a1;
        match Atomic.get rep_cell with
        | Some r -> ml.(i) <- epoch - Rep.epoch r
        | None -> ()
      end
      else begin
        Durable.Wal.append wal ~epoch ~weight ~blob;
        fanout ~ctx ~epoch ~weight ~blob
      end
    in
    (* One timed leader start on a fresh link of the template log. *)
    let start k =
      let dir = Filename.concat inp.work (Printf.sprintf "leader-%d" k) in
      link_dir ~src:inp.template ~dst:dir;
      nm := 0;
      pub := 0;
      Atomic.set rep_cell None;
      let t0 = now_ns () in
      let sketch, report =
        match Rec.recover_compact ~dir () with
        | Ok x -> x
        | Error e -> failwith ("recovery: " ^ e)
      in
      let t_rec = now_ns () in
      let wal = Durable.Wal.create ~fsync:(Durable.Wal.Every_n 64) ~dir () in
      let srv =
        Srv.create ?tracer ~eval
          ~make_engine:(fun ~on_merge ->
            Srv.P.create ~shards ~batch:engine_batch ?tracer
              ~initial:
                (sketch, report.Rec.recovered_epoch, report.recovered_published)
              ~on_merge:(hook wal on_merge) ())
          ()
      in
      let rep = Rep.connect ~host ~port:(Srv.port srv) () in
      if not (wait_live rep report.recovered_epoch) then
        failwith "replica never went live";
      let cli =
        Net.Client.create ~conns:client_conns ~batch:client_batch ?tracer ~host
          ~port:(Srv.port srv) ()
      in
      ignore (Net.Client.push cli inp.keys.(0));
      Net.Client.flush cli;
      let t1 = now_ns () in
      Atomic.set rep_cell (Some rep);
      (* No merge can have happened yet (one key sits in a partial delta),
         so this is the recovered state: the floor every Point answer must
         clear. *)
      let lower, _, _ = Srv.P.snapshot (Srv.engine srv) in
      {
        dir;
        srv;
        rep;
        cli;
        wal;
        lower;
        base_published = report.recovered_published;
        replayed = report.replayed;
        setup_ns = t1 - t0;
        replay_ns = t_rec - t0;
      }
    in
    let stop st =
      ignore (Srv.stop st.srv);
      Net.Client.close st.cli;
      Rep.close st.rep;
      Durable.Wal.close st.wal
    in
    let setups = ref [] in
    let rec starts k =
      let st = start k in
      setups := st.setup_ns :: !setups;
      if k < reps then begin
        stop st;
        rm_rf st.dir;
        Gc.compact ();
        starts (k + 1)
      end
      else st
    in
    let st = starts 1 in
    (* Replaying the log leaves a heap the size of the log; start every run's
       ingest from the same compacted heap, as a fresh leader process would. *)
    Gc.compact ();
    let eng = Srv.engine st.srv in
    let cli = st.cli in
    let mask = key_pool - 1 in
    (* Generator state. Item 0 was pushed by the start; the generator pushes
       items 1.. in chunks, stamping the time after each chunk. *)
    let max_items = w.warmup + 1 + (int_of_float window_s * 4_000_000) in
    let n_chunks = (max_items / chunk) + 2 in
    let stamps = Array.make n_chunks 0 in
    let push_ns = ref 0 in
    let closed_loop ~from ~last ~deadline =
      let rec go i =
        let t_before = if traced then now_ns () else 0 in
        for j = i to i + chunk - 1 do
          ignore (Net.Client.push cli (Array.unsafe_get inp.keys (j land mask)))
        done;
        let t = now_ns () in
        stamps.((i - 1) / chunk) <- t;
        if traced then push_ns := !push_ns + (t - t_before);
        let next = i + chunk in
        if t >= deadline || next + chunk - 1 > last then next else go next
      in
      go from
    in
    (* Queries: closed loop on the client's query connection. *)
    let window_ns = int_of_float (window_s *. 1e9) in
    let segs = max 2 (int_of_float (window_s /. segment_s)) in
    let qcap = burst_queries * segs in
    let qlat = Array.make qcap 0 and qans = Array.make qcap 0 in
    let query_loop ~first ~count =
      let rec go n =
        if n >= count || first + n >= qcap then n
        else begin
          let k = inp.qkeys.((first + n) land (query_pool - 1)) in
          let t0 = now_ns () in
          let r = Net.Client.query cli (Net.Frame.Point k) in
          let t1 = now_ns () in
          qlat.(first + n) <- t1 - t0;
          qans.(first + n) <-
            (match r with
            | Ok (Net.Frame.Result { pairs = [ (_, v) ]; _ }) -> v
            | _ -> -1);
          go (n + 1)
        end
      in
      go 0
    in
    (* Acked is not published. After a flush, wait until the engine is idle
       (every queued item consumed, every flushed delta merged, no merge for
       20 ms) and the replica is Live at the leader's epoch. The replica's
       epoch is polled with timestamps, so the moment it reached that final
       epoch is read back from the polls: that is the returned time. Items in
       a shard's partial delta (under one batch) need more input to be
       published; they ride into the next segment, and the final drain
       publishes the last of them. *)
    let poll_t = Array.make 65_536 0 and poll_e = Array.make 65_536 0 in
    let idle () =
      let s = Srv.P.stats eng in
      let sum f = Array.fold_left (fun a sh -> a + f sh) 0 s.Srv.P.shards in
      sum (fun sh -> sh.Srv.P.consumed) = sum (fun sh -> sh.Srv.P.enqueued)
      && s.Srv.P.published
         = st.base_published + sum (fun sh -> sh.Srv.P.flushed_items)
    in
    let caught_up t_ack =
      let n = ref 0 and deadline = t_ack + 20_000_000_000 in
      let rec go e_seen t_seen =
        let t = now_ns () in
        if t > deadline then failwith "engine or replica never caught up";
        let e = Srv.P.epoch eng in
        let r = Rep.stats st.rep in
        let live = r.Rep.status = `Live in
        if !n < Array.length poll_t then begin
          poll_t.(!n) <- t;
          poll_e.(!n) <- (if live then r.Rep.epoch else -1);
          incr n
        end;
        if e <> e_seen then go e t
        else if t - t_seen < 20_000_000 || r.Rep.epoch <> e || (not live)
                || not (idle ())
        then begin
          Unix.sleepf 5e-5;
          go e t_seen
        end
        else e
      in
      let e = go (Srv.P.epoch eng) t_ack in
      let rec first j = if j >= !n - 1 || poll_e.(j) >= e then j else first (j + 1) in
      max t_ack poll_t.(first 0)
    in
    (* ---- warm-up: not timed; a fresh process runs its first second slow *)
    let i0 = w.warmup + 1 in
    ignore (closed_loop ~from:1 ~last:w.warmup ~deadline:max_int);
    Net.Client.flush cli;
    ignore (caught_up (now_ns ()));
    (* ---- the timed window, in segments. A shared host's speed drifts by
       more than 10% from second to second, and stop-the-world minor GCs
       push query latency between two regimes, so each end-to-end figure
       is the median of per-segment values rather than one pooled number. *)
    let seg_ns = window_ns / segs in
    let seg_start = Array.make segs 0 and seg_gen_end = Array.make segs 0 in
    let seg_done = Array.make segs 0 and seg_first = Array.make segs 0 in
    let seg_items = Array.make segs 0 in
    let seg_q = Array.make (segs + 1) 0 in
    let snap_layers () =
      ( Srv.P.stats eng,
        Srv.stats st.srv,
        Option.map Obs.Registry.snapshot tracer_reg,
        (match L.probes with
        | Some p ->
            Some
              ( Acc.total p.updates,
                Acc.total p.encodes,
                Acc.total p.decodes,
                Acc.total p.merges )
        | None -> None),
        (match R.probes with
        | Some p -> Some (Acc.total p.decodes, Acc.total p.merges)
        | None -> None),
        wal_bytes st.dir,
        cpu_s () )
    in
    let before = if traced then Some (snap_layers ()) else None in
    let eng_before = Srv.P.stats eng in
    (* Each segment is a quiet query burst (the engine idle and caught up,
       so no query is timed beside ingest), then one second of closed-loop
       ingest, timed until its items are acked, merged and replicated. *)
    let t0 = now_ns () in
    let i = ref i0 and q = ref 0 in
    for s = 0 to segs - 1 do
      q := !q + query_loop ~first:!q ~count:burst_queries;
      seg_q.(s + 1) <- !q;
      let ts = now_ns () in
      let i' = closed_loop ~from:!i ~last:(max_items - 1) ~deadline:(ts + seg_ns) in
      seg_gen_end.(s) <- now_ns ();
      Net.Client.flush cli;
      seg_done.(s) <- caught_up (now_ns ());
      seg_start.(s) <- ts;
      seg_first.(s) <- !i;
      seg_items.(s) <- i' - !i;
      i := i'
    done;
    let i_end = !i in
    (* When item [i] entered the client: the stamp after its chunk. *)
    let push_time i = stamps.((i - 1) / chunk) in
    let nq = seg_q.(segs) in
    let n_items = i_end - i0 in
    Net.Client.flush cli;
    let d0 = now_ns () in
    Srv.P.drain eng;
    let drain_ns = now_ns () - d0 in
    let final_blob, final_epoch, final_pub = Srv.P.snapshot eng in
    let live = wait_live st.rep final_epoch in
    let t_end = now_ns () in
    let after = if traced then Some (snap_layers ()) else None in
    let srv_final = Srv.stop st.srv in
    let eng_stats = Srv.P.stats eng in
    let cs = Net.Client.stats cli in
    (* ---- output checks *)
    let replica_blob =
      match Rep.query st.rep (fun s -> R.encode s) with
      | Some (b, _) -> Some b
      | None -> None
    in
    let decode_or_fail b =
      match S.decode b with Ok s -> s | Error _ -> failwith "undecodable state"
    in
    let lower = decode_or_fail st.lower and final = decode_or_fail final_blob in
    let q_failed = ref 0 and q_outside = ref 0 in
    for j = 0 to nq - 1 do
      let k = inp.qkeys.(j land (query_pool - 1)) in
      let a = qans.(j) in
      if a < 0 then incr q_failed
      else if a < S.estimate lower k || a > S.estimate final k then
        incr q_outside
    done;
    let dropped =
      Array.fold_left
        (fun a (s : Srv.P.shard_stats) -> a + s.Srv.P.dropped)
        0 eng_stats.Srv.P.shards
    in
    let checks =
      [
        ( "conservation",
          cs.Net.Client.pushed = i_end
          && cs.Net.Client.acked = cs.Net.Client.pushed
          && final_pub = st.base_published + cs.Net.Client.acked
          && !pub = cs.Net.Client.acked );
        ("replica_live", live);
        ( "replica_equals_leader",
          match replica_blob with Some b -> Bytes.equal b final_blob | None -> false );
        ("point_answers_in_envelope", !q_outside = 0);
        ("engine_failures", Srv.P.failures eng = []);
      ]
    in
    let attempted = cs.Net.Client.pushed + nq in
    let failed = cs.Net.Client.shed + cs.Net.Client.errors + !q_failed + dropped in
    (* ---- end-to-end metrics: per segment, then the median *)
    let us x = float_of_int x /. 1e3 and ms x = float_of_int x /. 1e6 in
    let vis = Array.make (max 1 !nm) 0 in
    let per_seg f = median_float (List.init segs f) in
    let vis_n = Array.make segs 0 in
    let vis_pct q s =
      let n = ref 0 in
      for j = 0 to !nm - 1 do
        let p = mp.(j) in
        if mt.(j) >= seg_start.(s) && mt.(j) <= seg_gen_end.(s)
           && p - 1 >= seg_first.(s)
        then begin
          vis.(!n) <- mt.(j) - push_time (p - 1);
          incr n
        end
      done;
      vis_n.(s) <- !n;
      ms (percentile vis !n q)
    in
    let q_pct q s =
      let lo = seg_q.(s) and hi = seg_q.(s + 1) in
      us (percentile (Array.sub qlat lo (hi - lo)) (hi - lo) q)
    in
    let mops =
      per_seg (fun s ->
          float_of_int seg_items.(s) *. 1e3
          /. float_of_int (seg_done.(s) - seg_start.(s)))
    in
    let q50 = per_seg (q_pct 0.5) in
    let setup_s =
      median_float (List.map (fun ns -> float_of_int ns /. 1e9) !setups)
    in
    let e2e =
      [
        m "ingest_mops" "Mops/s" mops;
        m "visibility_ms_p50" "ms" (per_seg (vis_pct 0.5));
        m "visibility_ms_p90" "ms" (per_seg (vis_pct 0.9));
        m "query_us_p50" "us" q50;
        m "query_us_p90" "us" (per_seg (q_pct 0.9));
        m "setup_s" "s" setup_s;
        m "rss_peak_mb" "MB" (rss_peak_mb ());
      ]
    in
    let min_seg f = List.fold_left min max_int (List.init segs f) in
    let samples =
      [
        ("window_items", n_items);
        ("segments", segs);
        ("visibility", Array.fold_left ( + ) 0 vis_n);
        ("visibility_min_per_segment", min_seg (fun s -> vis_n.(s)));
        ("query", nq);
        ("query_min_per_segment", min_seg (fun s -> seg_q.(s + 1) - seg_q.(s)));
        ("setup", List.length !setups);
        ("wal_template_bytes", inp.template_bytes);
        ("merges", !nm);
      ]
    in
    (* ---- per-layer metrics, traced run only *)
    let layers, layer_samples =
      match (before, after) with
      | ( Some (e0, s0, r0, l0, rp0, wb0, cpu0),
          Some (e1, s1, r1, l1, rp1, wb1, cpu1) ) ->
          let per_item x = x /. float_of_int (max 1 n_items) in
          let stage snap name =
            match snap with
            | Some snap -> (
                match
                  Obs.Snapshot.find snap
                    ~labels:[ ("stage", name) ]
                    "trace_stage_seconds"
                with
                | Some (Obs.Snapshot.Summary v) ->
                    (v.Obs.Snapshot.s_count, v.Obs.Snapshot.s_sum *. 1e9)
                | _ -> (0, 0.0))
            | None -> (0, 0.0)
          in
          let stage_diff name =
            let c0, s0 = stage r0 name and c1, s1 = stage r1 name in
            (c1 - c0, s1 -. s0)
          in
          let sum_shards (st : Srv.P.stats) f =
            Array.fold_left (fun a s -> a + f s) 0 st.Srv.P.shards
          in
          let flushes =
            sum_shards e1 (fun s -> s.Srv.P.flushes)
            - sum_shards e0 (fun s -> s.Srv.P.flushes)
          and flushed =
            sum_shards e1 (fun s -> s.Srv.P.flushed_items)
            - sum_shards e0 (fun s -> s.Srv.P.flushed_items)
          in
          let ingested = s1.Srv.ingested - s0.Srv.ingested in
          let mean_ns (c : Acc.cell) =
            if c.Acc.timed = 0 then 0.0
            else float_of_int c.Acc.ns /. float_of_int c.Acc.timed
          in
          let upd, enc, dec, mrg =
            match (l0, l1) with
            | Some (u0, en0, d0, m0), Some (u1, en1, d1, m1) ->
                (Acc.diff u1 u0, Acc.diff en1 en0, Acc.diff d1 d0, Acc.diff m1 m0)
            | _ ->
                (Acc.zero, Acc.zero, Acc.zero, Acc.zero)
          in
          let rdec, rmrg =
            match (rp0, rp1) with
            | Some (d0, m0), Some (d1, m1) -> (Acc.diff d1 d0, Acc.diff m1 m0)
            | _ ->
                (Acc.zero, Acc.zero)
          in
          let rec_dec, rec_mrg =
            match Rc.probes with
            | Some p -> (Acc.total p.decodes, Acc.total p.merges)
            | None ->
                (Acc.zero, Acc.zero)
          in
          let update_ns =
            Float.max 0.0
              (mean_ns upd -. float_of_int (Lazy.force clock_overhead_ns))
          in
          (* window merges: appends, fanout and replica lag *)
          let win = ref [] in
          for j = !nm - 1 downto 0 do
            if mt.(j) >= t0 && mt.(j) <= t_end then win := j :: !win
          done;
          let win = Array.of_list !win in
          let nw = Array.length win in
          let pick a = Array.map (fun j -> a.(j)) win in
          let appends = pick ma and fanouts = pick mf and lags = pick ml in
          let sum a = Array.fold_left ( + ) 0 a in
          let lag_all = eng_stats.Srv.P.merge_lag in
          let lag_from = eng_before.Srv.P.merges in
          let lag_n = max 0 (Array.length lag_all - lag_from) in
          let lag_ns =
            Array.init lag_n (fun j ->
                int_of_float (lag_all.(lag_from + j) *. 1e9))
          in
          let n_ev = min (Atomic.get n_evals) (Array.length evals) in
          let dec_n, dec_ns = stage_diff "decode" in
          let _, ing_ns = stage_diff "ingest" in
          let _, queue_ns = stage_diff "queue" in
          let fl_n, fl_ns = stage_diff "flush" in
          let cpu_ns = (cpu1 -. cpu0) *. 1e9 in
          let frame_enc, frame_dec = frame_bench inp.keys in
          let srv_decode = if ingested > 0 then dec_ns /. float_of_int ingested else 0.0 in
          (* Layer busy time: the stages timed as CPU work. Stages whose
             spans also cover waiting (server ingest, queue residency, push
             backpressure) stay out of the sum, so the residual holds their
             busy part along with everything no layer times. *)
          let busy =
            per_item
              ((update_ns *. float_of_int upd.Acc.calls)
              +. float_of_int
                   (enc.Acc.ns + dec.Acc.ns + mrg.Acc.ns + rdec.Acc.ns
                  + rmrg.Acc.ns + sum appends + sum fanouts
                   + sum (Array.sub evals 0 n_ev))
              +. dec_ns)
            +. frame_enc
          in
          let cpu_item = per_item cpu_ns in
          let per n x = if n = 0 then 0.0 else x /. float_of_int n in
          let layers =
            [
              m "sketch.update_ns" "ns" update_ns;
              m "sketch.encode_us_per_flush" "us"
                (per enc.Acc.calls (float_of_int enc.Acc.ns) /. 1e3);
              m "sketch.delta_bytes_per_flush" "bytes"
                (per enc.Acc.calls (float_of_int enc.Acc.bytes));
              m "sketch.decode_us_per_merge" "us"
                (per dec.Acc.calls (float_of_int dec.Acc.ns) /. 1e3);
              m "sketch.merge_us_per_merge" "us"
                (per mrg.Acc.calls (float_of_int mrg.Acc.ns) /. 1e3);
              m "replica.decode_us_per_delta" "us"
                (per rdec.Acc.calls (float_of_int rdec.Acc.ns) /. 1e3);
              m "replica.merge_us_per_delta" "us"
                (per rmrg.Acc.calls (float_of_int rmrg.Acc.ns) /. 1e3);
              m "recovery.decode_us_per_record" "us"
                (per rec_dec.Acc.calls (float_of_int rec_dec.Acc.ns) /. 1e3);
              m "recovery.merge_us_per_record" "us"
                (per rec_mrg.Acc.calls (float_of_int rec_mrg.Acc.ns) /. 1e3);
              m "recovery.replay_s" "s" (float_of_int st.replay_ns /. 1e9);
              m "recovery.records" "count" (float_of_int st.replayed);
              m "wal.append_us_p50" "us" (us (percentile appends nw 0.5));
              m "wal.append_us_p99" "us" (us (percentile appends nw 0.99));
              m "wal.bytes_per_item" "bytes" (per_item (float_of_int (wb1 - wb0)));
              m "server.fanout_us_per_merge" "us"
                (per nw (float_of_int (sum fanouts)) /. 1e3);
              m "server.query_eval_us_p50" "us" (us (percentile evals n_ev 0.5));
              m "server.bytes_in_per_item" "bytes"
                (per_item (float_of_int (srv_final.Srv.bytes_in - s0.Srv.bytes_in)));
              m "server.decode_ns_per_item" "ns" srv_decode;
              m "server.ingest_ns_per_item" "ns"
                (if ingested > 0 then ing_ns /. float_of_int ingested else 0.0);
              m "engine.queue_ns_per_item" "ns"
                (if flushed > 0 then queue_ns /. float_of_int flushed else 0.0);
              m "engine.queue_max_depth" "count"
                (float_of_int (sum_shards eng_stats (fun s -> s.Srv.P.max_depth)));
              m "engine.parks" "count"
                (float_of_int
                   (sum_shards e1 (fun s -> s.Srv.P.parks)
                   - sum_shards e0 (fun s -> s.Srv.P.parks)));
              m "engine.merge_lag_ms_p50" "ms" (ms (percentile lag_ns lag_n 0.5));
              m "engine.merge_lag_ms_p90" "ms" (ms (percentile lag_ns lag_n 0.9));
              m "engine.items_per_flush" "count" (per flushes (float_of_int flushed));
              m "engine.drain_ms" "ms" (ms drain_ns);
              m "client.push_wait_ns_per_item" "ns" (per_item (float_of_int !push_ns));
              m "client.flush_ms" "ms" (per fl_n fl_ns /. 1e6);
              m "client.retries" "count"
                (float_of_int
                   (cs.Net.Client.reconnects + cs.Net.Client.duplicates_suppressed
                  + cs.Net.Client.errors));
              m "frame.encode_ns_per_key" "ns" frame_enc;
              m "frame.decode_ns_per_key" "ns" frame_dec;
              m "replica.lag_epochs_p90" "epochs" (float_of_int (percentile lags nw 0.9));
              m "replica.resyncs" "count"
                (float_of_int (Rep.stats st.rep).Rep.resyncs);
              m "process.cpu_ns_per_item" "ns" cpu_item;
              m "ledger.residual_pct" "%"
                (if cpu_item > 0.0 then 100.0 *. (cpu_item -. busy) /. cpu_item
                 else 0.0);
            ]
          in
          ( layers,
            [
              ("wal_appends", nw);
              ("merge_lag", lag_n);
              ("query_evals", n_ev);
              ("decode_spans", dec_n);
              ("client_flush_spans", fl_n);
              ("update_timed", upd.Acc.timed);
            ] )
      | _ -> ([], [])
    in
    stop st;
    rm_rf st.dir;
    {
      checks;
      attempted;
      failed;
      e2e;
      layers;
      samples = samples @ layer_samples;
      mops;
    }
end

(* ------------------------------- runs ------------------------------- *)

module Bench (S : SKETCH) = struct
  module Untraced = Instance (S) (Plain (S)) (Plain (S)) (Plain (S))
  module Leader = Timed (S) ()
  module Follower = Timed (S) ()
  module Recovering = Timed (S) ()
  module Traced = Instance (S) (Leader) (Follower) (Recovering)

  (* The log every timed start recovers, written untimed through the WAL's
     public writer: [w.wal_records] deltas of [engine_batch] items each. *)
  let build_template w ~dir ~rng ~draw =
    Unix.mkdir dir 0o755;
    let wal = Durable.Wal.create ~fsync:Durable.Wal.Never ~dir () in
    for epoch = 1 to w.wal_records do
      let d = S.create () in
      for _ = 1 to engine_batch do
        S.update d (draw rng)
      done;
      Durable.Wal.append wal ~epoch ~weight:engine_batch ~blob:(S.encode d)
    done;
    Durable.Wal.close wal;
    wal_bytes dir

  let run w ~seed ~seconds ~trace ~work =
    let rng, draw, keys, qkeys = materialise w seed in
    let template = Filename.concat work "template" in
    let template_bytes = build_template w ~dir:template ~rng ~draw in
    let inp =
      {
        w;
        keys;
        qkeys;
        template;
        template_bytes;
        work;
      }
    in
    if not trace then
      Untraced.run inp ~traced:false ~window_s:seconds ~reps:setup_reps
    else begin
      (* Half the time untraced, half traced: the difference between the
         two is the tracing overhead. *)
      let half = seconds /. 2.0 in
      let u = Untraced.run inp ~traced:false ~window_s:half ~reps:1 in
      let t = Traced.run inp ~traced:true ~window_s:half ~reps:1 in
      let overhead = 100.0 *. (u.mops -. t.mops) /. u.mops in
      let attempted = u.attempted + t.attempted
      and failed = u.failed + t.failed in
      {
        t with
        checks =
          t.checks @ List.map (fun (k, ok) -> ("untraced_" ^ k, ok)) u.checks;
        attempted;
        failed;
        layers =
          t.layers
          @ [
              m "trace.overhead_pct" "%" overhead;
              m "failed_ops_ratio" "ratio"
                (float_of_int failed /. float_of_int (max 1 attempted));
            ];
        samples = t.samples @ List.map (fun (k, v) -> ("untraced_" ^ k, v)) u.samples;
      }
    end
end

let usage () =
  prerr_endline
    "usage: servebench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads:";
  List.iter (fun w -> prerr_endline ("  " ^ w.name)) workloads;
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let w =
    match List.find_opt (fun w -> w.name = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed, seconds, trace =
    try
      ( int_of_string (get "seed"),
        float_of_string (get "seconds"),
        match get "trace" with "0" -> false | "1" -> true | _ -> raise Exit )
    with _ -> usage ()
  in
  if seconds <= 0.0 then usage ();
  let work =
    Filename.concat
      (Filename.concat (Sys.getcwd ()) ".servebench-work")
      (string_of_int (Unix.getpid ()))
  in
  (try Unix.mkdir (Filename.dirname work) 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  rm_rf work;
  Unix.mkdir work 0o755;
  let o =
    Fun.protect
      ~finally:(fun () ->
        rm_rf work;
        try Unix.rmdir (Filename.dirname work) with Unix.Unix_error _ -> ())
      (fun () ->
        match w.sketch with
        | Countmin ->
            let module B = Bench (Cm) in
            B.run w ~seed ~seconds ~trace ~work
        | Counter ->
            let module B = Bench (Ct) in
            B.run w ~seed ~seconds ~trace ~work)
  in
  let metrics = if trace then o.layers else o.e2e in
  (* A percentile is reported only with ten samples beyond it. *)
  let thin =
    if trace then []
    else
      List.filter
        (fun (k, n) ->
          (k = "visibility_min_per_segment" || k = "query_min_per_segment")
          && not (supports n 0.9))
        o.samples
  in
  let bad = List.filter (fun x -> not (Float.is_finite x.value)) metrics in
  if thin <> [] || bad <> [] then begin
    List.iter
      (fun (k, n) -> Printf.eprintf "too few %s samples for a p90: %d\n" k n)
      thin;
    List.iter (fun x -> Printf.eprintf "metric %s is not finite\n" x.mname) bad;
    exit 3
  end;
  let correct = List.for_all snd o.checks in
  let provenance =
    Obj
      [
        ("workload", Str w.name);
        ("seed", Int seed);
        ("seconds", Num seconds);
        ("trace", Bool trace);
        ("nproc", Int (Domain.recommended_domain_count ()));
        ("ocaml", Str Sys.ocaml_version);
        ("shards", Int shards);
        ("engine_batch", Int engine_batch);
        ("client_batch", Int client_batch);
        ("client_conns", Int client_conns);
        ("wal_fsync", Str "every-64");
        ( "keys",
          Obj
            [
              ("universe", Int universe);
              ( "dist",
                Str
                  (match w.dist with
                  | Uniform -> "uniform"
                  | Zipf s -> Printf.sprintf "zipf-%g" s) );
              ("ingest_pool", Int key_pool);
              ("query_pool", Int query_pool);
              ("warmup_items", Int w.warmup);
            ] );
        ( "wal_template",
          Obj
            [
              ("records", Int w.wal_records);
              ("items", Int (w.wal_records * engine_batch));
            ]
        );
        ("samples", Obj (List.map (fun (k, n) -> (k, Int n)) o.samples));
        ("checks", Obj (List.map (fun (k, b) -> (k, Bool b)) o.checks));
        ("attempted", Int o.attempted);
        ("failed", Int o.failed);
      ]
  in
  print_endline (json_line (Obj [ ("provenance", provenance) ]));
  print_endline
    (json_line
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int o.attempted);
            ("failed", Int o.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun x ->
                     (x.mname, Obj [ ("value", Num x.value); ("unit", Str x.unit_) ]))
                   metrics) );
          ]));
  if not correct then begin
    List.iter
      (fun (k, ok) -> if not ok then Printf.eprintf "output check failed: %s\n" k)
      o.checks;
    exit 1
  end
