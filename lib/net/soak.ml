(* Served chaos soak: the full tier — server, batching clients, follower
   replica — driven through a fault-injecting proxy while the server is
   killed and WAL-restarted underneath it.

   Topology:

     feeders -> Client --\                      /-- WAL + dedup journal (dir)
                          >-- Chaos_proxy --> Server (incarnation i)
     Replica <-----------/                      \-- recover_compact -> i+1

   Everything flows through the proxy: injected latency, bit corruption
   (caught by frame checksums -> rejected, never applied), mid-frame
   resets (client retries, dedup suppresses), refused dials, and full
   partitions. The server is additionally stopped and restarted from its
   WAL mid-trace, on a fresh port the proxy's upstream callback picks up
   at the next dial.

   The five verdicts are the IVL story end-to-end:
   - conservation: each incarnation's published weight equals its
     recovered base plus its accepted ingests, and each recovery lands
     exactly on the previous incarnation's final published weight — the
     pipeline invents nothing, loses nothing, across kills;
   - ack envelope: with zero retry-exhausted batches, the client's acked
     total brackets the leader's published weight from above, within
     [restarts * conns * client_batch] (a journal-replayed duplicate ack
     reports the batch's claimed count, which may overstate a drain-time
     partial accept — the only slack effectively-once leaves);
   - replica envelope: the follower never reports more published weight
     than the leader holds at a later instant (it lags, never leads),
     sampled concurrently through every fault and resync;
   - convergence: after quiescing the faults and draining the leader, the
     follower reaches the leader's exact epoch and published weight with
     a bit-for-bit identical encoded sketch;
   - slo: the continuous envelope-SLO monitor (Obs.Slo, Theorem-6 budget
     with chaos slack) never entered Breach — transient fault spikes may
     arm Warning, but sustained over-budget burn is an incident, and the
     zero-tolerance check reads the breach counter at drain. *)

type config = {
  dir : string;  (* WAL + checkpoint + dedup journal directory *)
  shards : int;
  batch : int;  (* engine micro-batch *)
  conns : int;  (* client sender connections *)
  feeders : int;
  client_batch : int;
  retries : int;  (* per-batch delivery attempts; must outlast outages *)
  restarts : int;  (* server kill + WAL-restart cycles *)
  down_time : float;  (* seconds the server stays dead per restart *)
  partitions : int;  (* full network partitions *)
  partition_time : float;
  faults : Chaos_proxy.faults;  (* steady-state wire faults *)
  seed : int64;
  settle : float;  (* timeout for the final convergence barrier *)
}

let default_config ~dir =
  {
    dir;
    shards = 4;
    batch = 128;
    conns = 2;
    feeders = 2;
    client_batch = 128;
    retries = 64;
    restarts = 2;
    down_time = 0.3;
    partitions = 1;
    partition_time = 0.3;
    faults =
      {
        Chaos_proxy.latency = (0.0, 0.002);
        corrupt_prob = 0.005;
        reset_prob = 0.005;
        drop_conn_prob = 0.02;
      };
    seed = 0xC4A05L;
    settle = 30.0;
  }

type verdict = {
  pass : bool;
  reasons : string list;
  conservation : bool;
  ack_envelope : bool;
  replica_envelope : bool;
  convergence : bool;
  slo : bool;
  slo_breaches : int;  (* times the burn-rate machine entered Breach *)
  slo_state : Obs.Slo.state;  (* machine state at drain *)
  restarts_done : int;
  partitions_done : int;
  published : int;  (* leader's final published weight *)
  final_epoch : int;
  acked : int;
  ack_allowance : int;
  duplicates_client : int;  (* dup acks the client observed *)
  duplicates_server : int;  (* batches the dedup window suppressed *)
  exhausted : int;  (* keys lost to retry exhaustion (must be 0) *)
  resyncs : int;  (* replica re-subscriptions *)
  follower_ahead : int;  (* samples where the follower led (must be 0) *)
  samples : int;  (* staleness-envelope samples taken *)
  client : Client.stats;
  proxy : Chaos_proxy.stats;
  driver : Workload.Driver.report;
  wall : float;
}

let shape_universe = function
  | Workload.Trace.Uniform { universe }
  | Workload.Trace.Zipf { universe; _ }
  | Workload.Trace.Drift { universe; _ }
  | Workload.Trace.Burst { universe; _ }
  | Workload.Trace.Hot_flip { universe; _ }
  | Workload.Trace.Adversarial { universe }
  | Workload.Trace.Recorded { universe } ->
      universe

let total_updates ops =
  Array.fold_left
    (fun a arr ->
      Array.fold_left
        (fun a op ->
          match op with
          | Workload.Scenario.Update _ -> a + 1
          | Workload.Scenario.Query _ -> a)
        a arr)
    0 ops

module Make (M : Pipeline.Mergeable.S) = struct
  module Srv = Server.Make (M)
  module Rep = Replica.Make (M)
  module R = Durable.Recovery.Make (M)

  type incarnation = { srv : Srv.t; wal : Durable.Wal.writer; base : int }

  let validate c =
    let bad fmt = Printf.ksprintf invalid_arg fmt in
    if c.shards <= 0 then bad "Net.Soak: shards must be positive";
    if c.conns <= 0 then bad "Net.Soak: conns must be positive";
    if c.feeders <= 0 then bad "Net.Soak: feeders must be positive";
    if c.client_batch <= 0 then bad "Net.Soak: client_batch must be positive";
    if c.restarts < 0 then bad "Net.Soak: restarts must be >= 0";
    if c.partitions < 0 then bad "Net.Soak: partitions must be >= 0"

  let run ?(progress = fun _ -> ()) ?metrics ?tracer ?http_port ?record c
      ~spec ~ops () =
    validate c;
    let reg =
      match metrics with Some r -> r | None -> Obs.Registry.create ()
    in
    let t_start = Unix.gettimeofday () in
    (* ---- server incarnations over one durable directory ---- *)
    let sm = Mutex.create () in
    let cur = ref None in
    let last_final = ref 0 in
    let port_ref = ref 0 in
    let conservation_failures = ref 0 in
    let recovery_mismatches = ref 0 in
    let dup_server = ref 0 in
    let start_incarnation () =
      let wal = ref None in
      let base = ref 0 in
      let srv =
        Srv.create ~host:"127.0.0.1" ~port:0 ~max_conns:(c.conns + 8)
          ~read_timeout:5.0 ~sub_queue:4096 ~dedup_dir:c.dir ~metrics:reg
          ?tracer
          ~eval:(fun _ _ -> None)
          ~make_engine:(fun ~on_merge ->
            let initial =
              if Result.is_ok (Durable.Wal.validate_dir ~dir:c.dir ()) then
                match R.recover_compact ~metrics:reg ~dir:c.dir () with
                | Ok (sk0, r) when r.R.recovered_epoch > 0 ->
                    Some (sk0, r.R.recovered_epoch, r.R.recovered_published)
                | _ -> None
              else None
            in
            (match initial with Some (_, _, p) -> base := p | None -> ());
            wal := Some (Durable.Wal.create ~dir:c.dir ~metrics:reg ());
            let on_merge ~ctx ~epoch ~weight ~blob =
              (match !wal with
              | Some w ->
                  (* the WAL append is the waterfall's last server-side
                     stage: time it under the merged delta's context *)
                  let t0 =
                    match tracer with
                    | Some _ when not (Obs.Span.is_zero ctx) ->
                        Obs.Tracer.now_ns ()
                    | _ -> 0
                  in
                  Durable.Wal.append w ~epoch ~weight ~blob;
                  (match tracer with
                  | Some tr when not (Obs.Span.is_zero ctx) ->
                      ignore
                        (Obs.Tracer.record tr ~ctx ~stage:"wal" ~start_ns:t0
                           ~end_ns:(Obs.Tracer.now_ns ()))
                  | _ -> ())
              | None -> ());
              on_merge ~ctx ~epoch ~weight ~blob
            in
            Srv.P.create ~shards:c.shards ~batch:c.batch ~metrics:reg
              ?tracer ~on_merge ?initial ())
          ()
      in
      (* recovery exactness: each incarnation must resume precisely where
         the previous one drained — the cross-restart half of conservation *)
      if !base <> !last_final then incr recovery_mismatches;
      let wal = match !wal with Some w -> w | None -> assert false in
      let inc = { srv; wal; base = !base } in
      Mutex.lock sm;
      cur := Some inc;
      port_ref := Srv.port srv;
      Mutex.unlock sm;
      inc
    in
    let stop_incarnation () =
      Mutex.lock sm;
      let inc = !cur in
      Mutex.unlock sm;
      match inc with
      | None -> ()
      | Some { srv; wal; base } ->
          (* [cur] stays set through the drain: the staleness sampler must
             keep seeing the live engine's growing published weight — the
             final fan-out reaches the replica before the drained total
             lands in last_final, and a cleared [cur] would compare the
             replica against the previous incarnation's stale final *)
          let st = Srv.stop srv in
          Durable.Wal.close wal;
          let est = Srv.P.counters (Srv.engine srv) in
          (* in-incarnation conservation: what drained is what was accepted *)
          if est.Srv.P.published <> base + st.Srv.ingested then
            incr conservation_failures;
          dup_server := !dup_server + st.Srv.duplicates;
          Mutex.lock sm;
          last_final := est.Srv.P.published;
          cur := None;
          Mutex.unlock sm
    in
    ignore (start_incarnation ());
    (* ---- the proxy everyone talks through ---- *)
    let proxy =
      Chaos_proxy.create ~seed:(Int64.add c.seed 0xBADL)
        ~upstream:(fun () ->
          Mutex.lock sm;
          let p = !port_ref in
          Mutex.unlock sm;
          ("127.0.0.1", p))
        ()
    in
    (* replica's first dial must land, so faults arm after the handshake *)
    let rep =
      Rep.connect ~read_timeout:1.0 ~resync_backoff:0.05 ~metrics:reg
        ?tracer ~host:"127.0.0.1" ~port:(Chaos_proxy.port proxy) ()
    in
    let cli =
      Client.create ~conns:c.conns ~batch:c.client_batch ~retries:c.retries
        ~read_timeout:2.0 ~overflow:Client.Block
        ~session:(Int64.add c.seed 0x5E55L) ~metrics:reg ?tracer
        ~host:"127.0.0.1" ~port:(Chaos_proxy.port proxy) ()
    in
    Chaos_proxy.set_faults proxy c.faults;
    (* ---- staleness sampler: follower lags, never leads ---- *)
    let sampler_stop = Atomic.make false in
    let ahead = Atomic.make 0 in
    let samples = Atomic.make 0 in
    let leader_pub () =
      Mutex.lock sm;
      let p =
        match !cur with
        | Some inc -> (Srv.P.counters (Srv.engine inc.srv)).Srv.P.published
        | None -> !last_final
      in
      Mutex.unlock sm;
      p
    in
    (* ---- envelope SLO: Theorem-6 budget, burn-rate machine ----
       slack 4.0 (double the theorem's default) because a chaos soak
       legitimately spikes every dimension: restarts park the merger,
       partitions freeze the replica. Dimensions read -1 (= unknown,
       in-budget) when there is no live incarnation or the follower is
       mid-resync — a dead leader is a restart in progress, not an SLO
       burn. *)
    let slo =
      Obs.Slo.create ~metrics:reg
        ~budget:
          (Obs.Slo.theorem6_budget ~slack:4.0 ~shards:c.shards ~batch:c.batch
             ~queue_capacity:1024 ())
        ~envelope:(fun () ->
          Mutex.lock sm;
          let v =
            match !cur with
            | None -> -1.0
            | Some inc ->
                let st = Srv.P.counters (Srv.engine inc.srv) in
                let accepted =
                  Array.fold_left
                    (fun a (s : Srv.P.shard_stats) ->
                      a + s.Srv.P.enqueued - s.Srv.P.dropped)
                    0 st.Srv.P.shards
                in
                float_of_int
                  (max 0 (inc.base + accepted - st.Srv.P.published))
          in
          Mutex.unlock sm;
          v)
        ~staleness:(fun () ->
          match (Rep.stats rep).Rep.status with
          | `Live ->
              float_of_int (max 0 (leader_pub () - Rep.published rep))
          | _ -> -1.0)
        ~merge_lag:(fun () ->
          Mutex.lock sm;
          let v =
            match !cur with
            | None -> -1.0
            | Some inc ->
                Option.value ~default:(-1.0)
                  (Srv.P.last_merge_lag (Srv.engine inc.srv))
          in
          Mutex.unlock sm;
          v)
        ()
    in
    let sampler =
      Domain.spawn (fun () ->
          let tick = ref 0 in
          while not (Atomic.get sampler_stop) do
            (* order matters: read the follower first, the leader second —
               the leader only grows, so rep > lead is a genuine lead *)
            let rp = Rep.published rep in
            let lp = leader_pub () in
            if rp > lp then Atomic.incr ahead;
            Atomic.incr samples;
            incr tick;
            (* ~20ms SLO cadence: breach_after 5 then means >=100ms of
               sustained over-budget burn, not one unlucky sample *)
            if !tick mod 10 = 0 then ignore (Obs.Slo.eval slo);
            Unix.sleepf 0.002
          done)
    in
    (* ---- drive the trace from a background domain ---- *)
    let driver_done = Atomic.make false in
    let driver_res = ref None in
    let driver_d =
      Domain.spawn (fun () ->
          let r =
            Workload.Driver.run ~feeders:c.feeders ~metrics:reg
              ~make_sink:(fun ~feeder:_ -> Client.sink cli)
              ~spec ~ops ()
          in
          driver_res := Some r;
          Atomic.set driver_done true)
    in
    (* ---- orchestrator: fire restarts and partitions mid-trace ---- *)
    let restarts_done = ref 0 in
    let partitions_done = ref 0 in
    (* ---- live telemetry plane: scrape the soak while it burns ---- *)
    let http =
      match http_port with
      | None -> None
      | Some p ->
          let health () =
            [
              ("leader_published", string_of_int (leader_pub ()));
              ("replica_published", string_of_int (Rep.published rep));
              ("client_acked",
               string_of_int (Client.stats cli).Client.acked);
              ("restarts", string_of_int !restarts_done);
              ("partitions", string_of_int !partitions_done);
            ]
          in
          let h =
            Obs.Http.create ~port:p
              ~handler:
                (Obs.Http.telemetry_handler ~registry:reg ?tracer ~slo
                   ~health ())
              ()
          in
          progress
            (Printf.sprintf "telemetry: http://127.0.0.1:%d/metrics"
               (Obs.Http.port h));
          Some h
    in
    let fire = function
      | `Restart ->
          progress
            (Printf.sprintf "restart %d: stopping server (published %d)"
               (!restarts_done + 1) (leader_pub ()));
          stop_incarnation ();
          Unix.sleepf c.down_time;
          let inc = start_incarnation () in
          incr restarts_done;
          progress
            (Printf.sprintf "restart %d: recovered published %d on port %d"
               !restarts_done inc.base (Srv.port inc.srv))
      | `Partition ->
          progress
            (Printf.sprintf "partition %d: severing all flows for %.2fs"
               (!partitions_done + 1) c.partition_time);
          Chaos_proxy.set_partition proxy true;
          Unix.sleepf c.partition_time;
          Chaos_proxy.set_partition proxy false;
          incr partitions_done
    in
    let events =
      (* interleave: restart, partition, restart, ... then leftovers *)
      let rec weave r p =
        if r = 0 && p = 0 then []
        else if r >= p && r > 0 then `Restart :: weave (r - 1) p
        else `Partition :: weave r (p - 1)
      in
      weave c.restarts c.partitions
    in
    let n_events = List.length events in
    let updates = total_updates ops in
    (* thresholds on the client's acked count: events land mid-stream, at
       even fractions of the update volume, deterministically ordered *)
    let threshold i = updates * (i + 1) / (n_events + 1) in
    List.iteri
      (fun i ev ->
        let target = threshold i in
        let rec wait () =
          if Atomic.get driver_done then ()
          else if (Client.stats cli).Client.acked >= target then ()
          else begin
            Unix.sleepf 0.01;
            wait ()
          end
        in
        wait ();
        fire ev)
      events;
    Domain.join driver_d;
    let driver =
      match !driver_res with Some r -> r | None -> assert false
    in
    (* ---- quiesce: transparent wire, resolve every in-flight batch ---- *)
    Chaos_proxy.set_partition proxy false;
    Chaos_proxy.set_faults proxy Chaos_proxy.no_faults;
    Client.close cli;
    let cli_stats = Client.stats cli in
    (* ---- final drain + convergence barrier ---- *)
    Mutex.lock sm;
    let final_inc = !cur in
    Mutex.unlock sm;
    let final_epoch, final_pub, leader_blob =
      match final_inc with
      | None -> (-1, !last_final, Bytes.empty)
      | Some { srv; _ } ->
          let eng = Srv.engine srv in
          Srv.P.drain eng;
          let blob, ep, pub = Srv.P.snapshot eng in
          (ep, pub, blob)
    in
    let caught_up = Rep.wait_epoch ~timeout:c.settle rep final_epoch in
    Atomic.set sampler_stop true;
    Domain.join sampler;
    let rep_stats = Rep.stats rep in
    let rep_blob =
      match Rep.query rep M.encode with Some (b, _) -> Some b | None -> None
    in
    Rep.close rep;
    stop_incarnation ();
    let proxy_stats = Chaos_proxy.stop proxy in
    (* one last advance of the burn-rate machine, then read its history *)
    let slo_final = Obs.Slo.eval slo in
    let slo_breaches = Obs.Slo.breaches slo in
    (match http with Some h -> Obs.Http.stop h | None -> ());
    (* ---- verdicts ---- *)
    let reasons = ref [] in
    let add fmt = Printf.ksprintf (fun m -> reasons := m :: !reasons) fmt in
    let conservation =
      !conservation_failures = 0 && !recovery_mismatches = 0
    in
    if !conservation_failures > 0 then
      add "%d incarnations broke published = recovered + ingested"
        !conservation_failures;
    if !recovery_mismatches > 0 then
      add "%d recoveries missed the previous published weight"
        !recovery_mismatches;
    let ack_allowance = !restarts_done * c.conns * c.client_batch in
    let ack_envelope =
      cli_stats.Client.exhausted = 0
      && cli_stats.Client.acked >= final_pub
      && cli_stats.Client.acked - final_pub <= ack_allowance
    in
    if cli_stats.Client.exhausted > 0 then
      add "%d keys exhausted their retries (delivery fate unknown)"
        cli_stats.Client.exhausted;
    if cli_stats.Client.acked < final_pub then
      add "acked %d < published %d: weight appeared without an ack"
        cli_stats.Client.acked final_pub;
    if cli_stats.Client.acked - final_pub > ack_allowance then
      add "acked %d exceeds published %d beyond the restart allowance %d"
        cli_stats.Client.acked final_pub ack_allowance;
    let replica_envelope =
      Atomic.get samples > 0
      && Atomic.get ahead = 0
      && (n_events = 0 || rep_stats.Rep.resyncs >= 1)
    in
    if Atomic.get samples = 0 then add "no staleness samples taken";
    if Atomic.get ahead > 0 then
      add "follower led the leader in %d of %d samples" (Atomic.get ahead)
        (Atomic.get samples);
    if n_events > 0 && rep_stats.Rep.resyncs < 1 then
      add "no replica resync despite %d fault events" n_events;
    let convergence =
      caught_up
      && rep_stats.Rep.epoch = final_epoch
      && rep_stats.Rep.published = final_pub
      && (match rep_blob with
         | Some b -> Bytes.equal b leader_blob
         | None -> false)
    in
    if not caught_up then
      add "replica failed to reach epoch %d within %.1fs (status %s)"
        final_epoch c.settle
        (match rep_stats.Rep.status with
        | `Syncing -> "syncing"
        | `Live -> "live"
        | `Resyncing m -> "resyncing: " ^ m
        | `Broken m -> "broken: " ^ m
        | `Closed -> "closed")
    else begin
      if rep_stats.Rep.published <> final_pub then
        add "replica published %d <> leader %d" rep_stats.Rep.published
          final_pub;
      match rep_blob with
      | Some b when not (Bytes.equal b leader_blob) ->
          add "replica sketch diverged from the leader bit-for-bit";
      | None -> add "replica held no sketch at the end"
      | Some _ -> ()
    end;
    (* zero tolerance at drain: the machine may have armed Warning during
       chaos, but an actual Breach — sustained over-budget burn — fails
       the run *)
    let slo_ok = slo_breaches = 0 in
    if slo_breaches > 0 then
      add "SLO breached %d times (worst dim %s at %.2fx budget)"
        slo_breaches slo_final.Obs.Slo.worst_dim
        slo_final.Obs.Slo.worst_ratio;
    (* ---- optional incident capture: freeze the driven ops ---- *)
    (match record with
    | None -> ()
    | Some path ->
        let spec' =
          {
            spec with
            Workload.Trace.phases =
              List.map
                (fun (p : Workload.Trace.phase) ->
                  {
                    p with
                    Workload.Trace.rate = Workload.Trace.Unlimited;
                    shape =
                      Workload.Trace.Recorded
                        { universe = shape_universe p.Workload.Trace.shape };
                  })
                spec.Workload.Trace.phases;
          }
        in
        (match Workload.Trace.write ~path spec' ops with
        | Ok () -> progress (Printf.sprintf "recorded trace to %s" path)
        | Error m -> add "trace record failed: %s" m));
    {
      pass = !reasons = [];
      reasons = List.rev !reasons;
      conservation;
      ack_envelope;
      replica_envelope;
      convergence;
      slo = slo_ok;
      slo_breaches;
      slo_state = slo_final.Obs.Slo.state;
      restarts_done = !restarts_done;
      partitions_done = !partitions_done;
      published = final_pub;
      final_epoch;
      acked = cli_stats.Client.acked;
      ack_allowance;
      duplicates_client = cli_stats.Client.duplicates_suppressed;
      duplicates_server = !dup_server;
      exhausted = cli_stats.Client.exhausted;
      resyncs = rep_stats.Rep.resyncs;
      follower_ahead = Atomic.get ahead;
      samples = Atomic.get samples;
      client = cli_stats;
      proxy = proxy_stats;
      driver;
      wall = Unix.gettimeofday () -. t_start;
    }

  let verdict_to_string v =
    let b = Buffer.create 1024 in
    let line name ok detail =
      Buffer.add_string b
        (Printf.sprintf "served-soak: %s %s (%s)\n" name
           (if ok then "PASS" else "FAIL")
           detail)
    in
    line "conservation" v.conservation
      (Printf.sprintf "published %d across %d restarts, %d partitions"
         v.published v.restarts_done v.partitions_done);
    line "ack envelope" v.ack_envelope
      (Printf.sprintf "acked %d, published %d, slack <= %d, exhausted %d"
         v.acked v.published v.ack_allowance v.exhausted);
    line "replica envelope" v.replica_envelope
      (Printf.sprintf "%d samples, %d follower-ahead, %d resyncs" v.samples
         v.follower_ahead v.resyncs);
    line "convergence" v.convergence
      (Printf.sprintf "epoch %d, bit-for-bit after quiesce" v.final_epoch);
    line "slo" v.slo
      (Printf.sprintf "%d breaches, final state %s" v.slo_breaches
         (Obs.Slo.state_to_string v.slo_state));
    Buffer.add_string b
      (Printf.sprintf
         "served-soak: %d duplicates suppressed (client saw %d), %d proxy \
          resets, %d corruptions, %d refused dials, %d reconnects, %.1fs\n"
         v.duplicates_server v.duplicates_client v.proxy.Chaos_proxy.resets
         v.proxy.Chaos_proxy.corruptions v.proxy.Chaos_proxy.refused
         v.client.Client.reconnects v.wall);
    List.iter
      (fun m -> Buffer.add_string b (Printf.sprintf "FAIL: %s\n" m))
      v.reasons;
    Buffer.add_string b
      (Printf.sprintf "served-soak: %s\n" (if v.pass then "PASS" else "FAIL"));
    Buffer.contents b
end
