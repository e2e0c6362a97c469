(* End-to-end soak harness tests: a miniature chaos soak (crash/recover
   rounds, worker kills, torn WAL tails) must come back PASS with zero
   violations, and the CLI must exit 2 with a diagnostic — not a stack
   trace — when pointed at an unusable durable directory. *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ivl-test-soak-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  Unix.mkdir d 0o755;
  d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let test_tiny_soak_passes () =
  with_dir @@ fun dir ->
  let spec = Workload.Trace.default_spec ~seed:0xBEEFL ~ops:24_000 ~universe:1024 () in
  let ops = Workload.Trace.materialize spec in
  let module S = Workload.Soak in
  let cfg =
    {
      (S.default_config ~dir) with
      S.shards = 2;
      feeders = 2;
      rounds = 2;
      kills_per_round = 1;
      key_sample = 512;
    }
  in
  let v = S.run cfg ~spec ~ops () in
  if not v.S.pass then
    Alcotest.failf "soak failed: %s" (String.concat "; " v.S.reasons);
  Alcotest.(check int) "one recovery" 1 v.S.recoveries;
  Alcotest.(check int) "two rounds" 2 (List.length v.S.rounds);
  List.iter
    (fun (r : S.round_report) ->
      Alcotest.(check int) "monotone clean" 0 r.S.monotone_violations;
      Alcotest.(check bool) "history recorded" true (r.S.history_ops > 0);
      Alcotest.(check int) "conservation holds" 0 r.S.conservation_failures;
      Alcotest.(check int) "no epoch regressions" 0 r.S.epoch_regressions;
      Alcotest.(check int) "oracle lower bound holds" 0 r.S.oracle_lower_violations;
      Alcotest.(check bool) "oracle keys checked" true (r.S.checked_keys > 0))
    v.S.rounds;
  (* Weight only leaks, never appears: accepted covers published. *)
  Alcotest.(check bool) "lost weight non-negative" true (v.S.lost_weight >= 0);
  let s = S.verdict_to_string v in
  Alcotest.(check bool) "verdict prints PASS" true
    (String.length s >= 10
    && (let rec has i =
          i + 10 <= String.length s
          && (String.sub s i 10 = "soak: PASS" || has (i + 1))
        in
        has 0))

let test_soak_rejects_bad_config () =
  with_dir @@ fun dir ->
  let spec = Workload.Trace.default_spec ~seed:1L ~ops:100 ~universe:16 () in
  let ops = Workload.Trace.materialize spec in
  let module S = Workload.Soak in
  let cfg = { (S.default_config ~dir) with S.shards = 2; kills_per_round = 3 } in
  match S.run cfg ~spec ~ops () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kills_per_round > shards accepted"

(* --- the CLI's friendly failures (S1 regression) ----------------------- *)

let exe = Filename.concat (Filename.concat ".." "bin") "main.exe"

let quiet cmd = cmd ^ " >/dev/null 2>&1"

let test_cli_recover_missing_dir_exits_2 () =
  if not (Sys.file_exists exe) then ()
  else
    Alcotest.(check int) "recover exits 2" 2
      (Sys.command (quiet (exe ^ " recover --dir /tmp/ivl-definitely-not-there")))

let test_cli_recover_file_dir_exits_2 () =
  if not (Sys.file_exists exe) then ()
  else
    with_dir @@ fun dir ->
    let f = Filename.concat dir "plain" in
    let oc = open_out f in
    output_string oc "x";
    close_out oc;
    Alcotest.(check int) "recover on a plain file exits 2" 2
      (Sys.command (quiet (exe ^ " recover --dir " ^ Filename.quote f)))

let test_cli_pipeline_bad_wal_parent_exits_2 () =
  if not (Sys.file_exists exe) then ()
  else
    Alcotest.(check int) "pipeline --wal under a missing parent exits 2" 2
      (Sys.command
         (quiet
            (exe
           ^ " pipeline --ops 100 --wal /tmp/ivl-definitely-not-there/sub")))

(* The CLI pipeline's IVL verdict must have checked a real history: its
   envelope line counts the merge updates and reads it saw. *)
let test_cli_pipeline_checks_history () =
  if not (Sys.file_exists exe) then ()
  else
    with_dir @@ fun dir ->
    let out = Filename.concat dir "out" in
    Alcotest.(check int) "pipeline passes" 0
      (Sys.command
         (exe ^ " pipeline --ops 20000 >" ^ Filename.quote out ^ " 2>&1"));
    let ic = open_in out in
    let rec find () =
      match input_line ic with
      | l -> (
          try
            Scanf.sscanf l "envelope: %d merge updates + %d reads checked"
              (fun u r -> Some (u, r))
          with Scanf.Scan_failure _ | End_of_file | Failure _ -> find ())
      | exception End_of_file -> None
    in
    let line = find () in
    close_in ic;
    match line with
    | Some (updates, reads) ->
        Alcotest.(check bool) "merge updates checked" true (updates > 0);
        Alcotest.(check bool) "reads checked" true (reads > 0)
    | None -> Alcotest.fail "no envelope line"

let () =
  Alcotest.run "soak"
    [
      ( "harness",
        [
          Alcotest.test_case "tiny chaos soak passes" `Quick test_tiny_soak_passes;
          Alcotest.test_case "bad config rejected" `Quick test_soak_rejects_bad_config;
        ] );
      ( "cli",
        [
          Alcotest.test_case "recover: missing dir exits 2" `Quick
            test_cli_recover_missing_dir_exits_2;
          Alcotest.test_case "recover: plain file exits 2" `Quick
            test_cli_recover_file_dir_exits_2;
          Alcotest.test_case "pipeline: bad --wal parent exits 2" `Quick
            test_cli_pipeline_bad_wal_parent_exits_2;
          Alcotest.test_case "pipeline: envelope checks a history" `Quick
            test_cli_pipeline_checks_history;
        ] );
    ]
