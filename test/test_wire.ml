(* Wire codec tests: every codec round-trips losslessly (encode ∘ decode =
   identity on the sketch state), and every corrupted frame — truncated,
   bit-flipped, wrong magic, wrong kind, future version, random garbage —
   decodes to [Error], never an exception. *)

let seed = 99L

(* ------------------------- builders ------------------------- *)

let cm_family = Hashing.Family.seeded ~seed ~rows:3 ~width:32

let cm_of xs =
  let t = Sketches.Countmin.create ~family:cm_family in
  List.iter (Sketches.Countmin.update t) xs;
  t

let hll_of xs =
  let t = Sketches.Hyperloglog.create ~p:6 ~seed () in
  List.iter (Sketches.Hyperloglog.update t) xs;
  t

let kmv_of xs =
  let t = Sketches.Kmv.create ~k:16 ~seed () in
  List.iter (Sketches.Kmv.update t) xs;
  t

let quantiles_of xs =
  let t = Sketches.Quantiles.create ~k:32 ~seed () in
  List.iter (Sketches.Quantiles.update t) xs;
  t

let space_saving_of xs =
  let t = Sketches.Space_saving.create ~capacity:8 in
  List.iter (Sketches.Space_saving.update t) xs;
  t

let counter_of xs =
  let t = Sketches.Batched_counter.create () in
  List.iter (fun x -> Sketches.Batched_counter.update t (abs x)) xs;
  t

let sample = [ 3; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5; 8; 9; 7; 9; 3; 2; 3; 8; 4 ]

(* ------------------------- equality ------------------------- *)

let cm_equal a b =
  Sketches.Countmin.updates a = Sketches.Countmin.updates b
  && Hashing.Family.compatible (Sketches.Countmin.family a)
       (Sketches.Countmin.family b)
  &&
  let rows = Sketches.Countmin.rows a and width = Sketches.Countmin.width a in
  rows = Sketches.Countmin.rows b
  && width = Sketches.Countmin.width b
  &&
  let ok = ref true in
  for r = 0 to rows - 1 do
    for c = 0 to width - 1 do
      if
        Sketches.Countmin.cell a ~row:r ~col:c
        <> Sketches.Countmin.cell b ~row:r ~col:c
      then ok := false
    done
  done;
  !ok

let hll_equal a b =
  Sketches.Hyperloglog.p a = Sketches.Hyperloglog.p b
  && Sketches.Hyperloglog.seed a = Sketches.Hyperloglog.seed b
  && Sketches.Hyperloglog.registers a = Sketches.Hyperloglog.registers b

let kmv_equal a b =
  Sketches.Kmv.k a = Sketches.Kmv.k b
  && Sketches.Kmv.seed a = Sketches.Kmv.seed b
  && Sketches.Kmv.hashes a = Sketches.Kmv.hashes b

let quantiles_equal a b =
  Sketches.Quantiles.k a = Sketches.Quantiles.k b
  && Sketches.Quantiles.seed a = Sketches.Quantiles.seed b
  && Sketches.Quantiles.total a = Sketches.Quantiles.total b
  && Sketches.Quantiles.levels a = Sketches.Quantiles.levels b

let space_saving_equal a b =
  Sketches.Space_saving.capacity a = Sketches.Space_saving.capacity b
  && Sketches.Space_saving.total a = Sketches.Space_saving.total b
  && Sketches.Space_saving.entries a = Sketches.Space_saving.entries b

let counter_equal a b =
  Sketches.Batched_counter.read a = Sketches.Batched_counter.read b

(* One row per codec: build from an int list, encode, decode, compare. The
   [decode_any] column drives the corruption sweeps below. *)
type codec = {
  label : string;
  kind : string; (* the wire kind name, as [Wire.Codec.kind_name] spells it *)
  blob_of : int list -> Bytes.t;
  roundtrips : int list -> bool;
  decode_any : Bytes.t -> (unit, Wire.Codec.error) result;
}

let check_rt eq dec blob v =
  match dec blob with Ok v' -> eq v v' | Error _ -> false

let codecs =
  [
    {
      label = "countmin";
      kind = "countmin-sparse";
      blob_of = (fun xs -> Wire.Countmin.encode (cm_of xs));
      roundtrips =
        (fun xs ->
          let v = cm_of xs in
          check_rt cm_equal Wire.Countmin.decode (Wire.Countmin.encode v) v);
      decode_any =
        (fun b -> Result.map (fun _ -> ()) (Wire.Countmin.decode b));
    };
    {
      label = "hll";
      kind = "hyperloglog";
      blob_of = (fun xs -> Wire.Hll.encode (hll_of xs));
      roundtrips =
        (fun xs ->
          let v = hll_of xs in
          check_rt hll_equal Wire.Hll.decode (Wire.Hll.encode v) v);
      decode_any = (fun b -> Result.map (fun _ -> ()) (Wire.Hll.decode b));
    };
    {
      label = "kmv";
      kind = "kmv";
      blob_of = (fun xs -> Wire.Kmv.encode (kmv_of xs));
      roundtrips =
        (fun xs ->
          let v = kmv_of xs in
          check_rt kmv_equal Wire.Kmv.decode (Wire.Kmv.encode v) v);
      decode_any = (fun b -> Result.map (fun _ -> ()) (Wire.Kmv.decode b));
    };
    {
      label = "quantiles";
      kind = "quantiles";
      blob_of = (fun xs -> Wire.Quantiles.encode (quantiles_of xs));
      roundtrips =
        (fun xs ->
          let v = quantiles_of xs in
          check_rt quantiles_equal Wire.Quantiles.decode
            (Wire.Quantiles.encode v) v);
      decode_any =
        (fun b -> Result.map (fun _ -> ()) (Wire.Quantiles.decode b));
    };
    {
      label = "space-saving";
      kind = "space-saving";
      blob_of = (fun xs -> Wire.Space_saving.encode (space_saving_of xs));
      roundtrips =
        (fun xs ->
          let v = space_saving_of xs in
          check_rt space_saving_equal Wire.Space_saving.decode
            (Wire.Space_saving.encode v) v);
      decode_any =
        (fun b -> Result.map (fun _ -> ()) (Wire.Space_saving.decode b));
    };
    {
      label = "counter";
      kind = "counter";
      blob_of = (fun xs -> Wire.Counter.encode (counter_of xs));
      roundtrips =
        (fun xs ->
          let v = counter_of xs in
          check_rt counter_equal Wire.Counter.decode (Wire.Counter.encode v) v);
      decode_any = (fun b -> Result.map (fun _ -> ()) (Wire.Counter.decode b));
    };
  ]

(* ------------------------- round trips ------------------------- *)

let test_roundtrip_sample () =
  List.iter
    (fun c ->
      Alcotest.(check bool) (c.label ^ " round-trips") true (c.roundtrips sample))
    codecs

let test_roundtrip_empty () =
  List.iter
    (fun c ->
      Alcotest.(check bool) (c.label ^ " empty round-trips") true (c.roundtrips []))
    codecs

let test_peek () =
  List.iter
    (fun c ->
      match Wire.Codec.peek (c.blob_of sample) with
      | Ok (kind, v) ->
          Alcotest.(check string) (c.label ^ " peek kind") c.kind kind;
          Alcotest.(check int) (c.label ^ " peek version") Wire.Codec.version v
      | Error e -> Alcotest.failf "peek %s: %s" c.label (Wire.Codec.error_to_string e))
    codecs

(* ------------------------- corruption ------------------------- *)

(* Never raises, and (for the sweeps below) never silently succeeds. *)
let expect_error ~what c blob =
  match c.decode_any blob with
  | Ok () -> Alcotest.failf "%s %s: decoded successfully" c.label what
  | Error _ -> ()
  | exception e ->
      Alcotest.failf "%s %s: raised %s" c.label what (Printexc.to_string e)

let test_truncation () =
  List.iter
    (fun c ->
      let blob = c.blob_of sample in
      for len = 0 to Bytes.length blob - 1 do
        expect_error ~what:(Printf.sprintf "truncated to %d" len) c
          (Bytes.sub blob 0 len)
      done)
    codecs

let test_bit_flips () =
  (* Every single-bit corruption of a valid frame must be rejected: header
     flips hit the magic/version/kind/length validation, payload flips hit
     the checksum, checksum flips mismatch the payload. *)
  List.iter
    (fun c ->
      let blob = c.blob_of sample in
      for byte = 0 to Bytes.length blob - 1 do
        for bit = 0 to 7 do
          let b = Bytes.copy blob in
          Bytes.set b byte
            (Char.chr (Char.code (Bytes.get blob byte) lxor (1 lsl bit)));
          expect_error ~what:(Printf.sprintf "bit %d of byte %d flipped" bit byte)
            c b
        done
      done)
    codecs

let test_wrong_magic () =
  List.iter
    (fun c ->
      let blob = c.blob_of sample in
      Bytes.blit_string "XXXX" 0 blob 0 4;
      match c.decode_any blob with
      | Error Wire.Codec.Bad_magic -> ()
      | Error e ->
          Alcotest.failf "%s wrong magic: expected Bad_magic, got %s" c.label
            (Wire.Codec.error_to_string e)
      | Ok () -> Alcotest.failf "%s wrong magic decoded" c.label)
    codecs

let test_future_version () =
  List.iter
    (fun c ->
      let blob = c.blob_of sample in
      Bytes.set blob 4 (Char.chr 99);
      match c.decode_any blob with
      | Error (Wire.Codec.Unsupported_version 99) -> ()
      | Error e ->
          Alcotest.failf "%s version 99: expected Unsupported_version, got %s"
            c.label
            (Wire.Codec.error_to_string e)
      | Ok () -> Alcotest.failf "%s version 99 decoded" c.label)
    codecs

let test_wrong_kind () =
  (* A valid counter blob offered to every other codec: precise Wrong_kind. *)
  let counter_blob = Wire.Counter.encode (counter_of sample) in
  List.iter
    (fun c ->
      if c.label <> "counter" then
        match c.decode_any counter_blob with
        | Error (Wire.Codec.Wrong_kind { expected; got }) ->
            Alcotest.(check string) (c.label ^ " expected kind") c.kind expected;
            Alcotest.(check string) (c.label ^ " got kind") "counter" got
        | Error e ->
            Alcotest.failf "%s on counter blob: expected Wrong_kind, got %s"
              c.label
              (Wire.Codec.error_to_string e)
        | Ok () -> Alcotest.failf "%s decoded a counter blob" c.label)
    codecs

let test_trailing_garbage () =
  List.iter
    (fun c ->
      let blob = c.blob_of sample in
      let b = Bytes.extend blob 0 3 in
      expect_error ~what:"3 trailing bytes" c b)
    codecs

(* ------------------------- sparse CountMin ------------------------- *)

(* A sketch straight from a counter image, so shapes a stream rarely makes
   (one cell, every cell, counters near max_int) are easy to ask for. *)
let cm_of_cells ~n cells =
  Sketches.Countmin.of_nonzero ~family:cm_family ~n (fun set ->
      Array.iteri
        (fun r row -> Array.iteri (fun c v -> set ((r * Array.length row) + c) v) row)
        cells)
let cm_rows = Hashing.Family.rows cm_family
let cm_width = Hashing.Family.width cm_family
let cm_cells = cm_rows * cm_width

let cm_image_gen =
  let open QCheck.Gen in
  let value = oneof [ int_range 1 300; int_range (max_int - 1000) max_int ] in
  let cells f = Array.init cm_rows (fun r -> Array.init cm_width (fun c -> f r c)) in
  let shape =
    oneof
      [
        return (cells (fun _ _ -> 0));
        (let* at = int_bound (cm_cells - 1) and* v = value in
         return (cells (fun r c -> if (r * cm_width) + c = at then v else 0)));
        (let* vs = array_repeat cm_cells value in
         return (cells (fun r c -> vs.((r * cm_width) + c))));
        (let* vs = array_repeat cm_cells (pair (float_bound_inclusive 1.0) value) in
         return
           (cells (fun r c ->
                let p, v = vs.((r * cm_width) + c) in
                if p < 0.2 then v else 0)));
      ]
  in
  pair shape (int_bound max_int)

let cm_image_arb =
  QCheck.make
    ~print:(fun (cells, n) ->
      let nnz =
        Array.fold_left
          (fun a row -> Array.fold_left (fun a c -> if c <> 0 then a + 1 else a) a row)
          0 cells
      in
      Printf.sprintf "n=%d, %d nonzero cells" n nnz)
    cm_image_gen

let sparse_roundtrip (cells, n) =
  let cm = cm_of_cells ~n cells in
  let blob = Wire.Countmin.encode cm in
  (match Wire.Codec.peek blob with
  | Ok ("countmin-sparse", _) -> true
  | _ -> false)
  && check_rt cm_equal Wire.Countmin.decode blob cm

(* One sketch, one spelling: re-encoding, re-decoding, or building the same
   state by another update order all give the same bytes. *)
let test_sparse_canonical () =
  let a = cm_of sample and b = cm_of (List.rev sample) in
  let blob = Wire.Countmin.encode a in
  Alcotest.(check bytes) "encode is deterministic" blob (Wire.Countmin.encode a);
  Alcotest.(check bytes) "update order does not show" blob (Wire.Countmin.encode b);
  match Wire.Countmin.decode blob with
  | Ok a' -> Alcotest.(check bytes) "decode-encode is the identity" blob (Wire.Countmin.encode a')
  | Error e -> Alcotest.fail (Wire.Codec.error_to_string e)

(* A full sketch of small counters still beats the dense image's 8 bytes
   per cell. *)
let test_sparse_full_is_smaller () =
  let cm = cm_of_cells ~n:cm_cells (Array.make_matrix cm_rows cm_width 1) in
  let dense = Wire.Codec.header_size + 8 + (16 * cm_rows) + 8 + (8 * cm_cells) in
  let got = Bytes.length (Wire.Countmin.encode cm) in
  if got >= dense then Alcotest.failf "sparse %d bytes >= dense %d" got dense

(* Hand-built kind-19 payloads: a valid header, then the body under test. *)
let sparse_blob body =
  Wire.Codec.encode ~kind:Wire.Codec.countmin_sparse_kind (fun b ->
      Wire.Codec.u32 b cm_rows;
      Wire.Codec.u32 b cm_width;
      Array.iter
        (fun (a, c) ->
          Wire.Codec.int_ b a;
          Wire.Codec.int_ b c)
        (Option.get (Hashing.Family.coefficients cm_family));
      Wire.Codec.int_ b 7;
      body b)

let expect_corrupt what blob =
  match Wire.Countmin.decode blob with
  | Error (Wire.Codec.Corrupt _) -> ()
  | Error e ->
      Alcotest.failf "%s: expected Corrupt, got %s" what (Wire.Codec.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: decoded" what
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)

let test_sparse_malformed () =
  let v = Wire.Codec.uvarint in
  (match Wire.Countmin.decode (sparse_blob (fun b -> v b 1; v b 5; v b 3)) with
  | Ok cm ->
      Alcotest.(check int) "hand-built blob decodes" 3
        (Sketches.Countmin.cell cm ~row:0 ~col:5)
  | Error e -> Alcotest.fail (Wire.Codec.error_to_string e));
  expect_corrupt "index = rows*width"
    (sparse_blob (fun b -> v b 1; v b cm_cells; v b 1));
  expect_corrupt "second index past the end"
    (sparse_blob (fun b -> v b 2; v b 0; v b 1; v b (cm_cells - 1); v b 1));
  expect_corrupt "gap of max_int" (sparse_blob (fun b -> v b 2; v b 3; v b 1; v b max_int; v b 1));
  expect_corrupt "zero value" (sparse_blob (fun b -> v b 1; v b 4; v b 0));
  expect_corrupt "nnz > rows*width"
    (sparse_blob (fun b -> v b (cm_cells + 1)));
  expect_corrupt "varint past 62 bits"
    (sparse_blob (fun b ->
         v b 1;
         v b 0;
         Buffer.add_string b "\xff\xff\xff\xff\xff\xff\xff\xff\x40"));
  expect_corrupt "varint with ten groups"
    (sparse_blob (fun b ->
         v b 1;
         v b 0;
         Buffer.add_string b "\x81\x80\x80\x80\x80\x80\x80\x80\x80\x00"));
  expect_corrupt "overlong varint" (sparse_blob (fun b -> v b 1; v b 0; Buffer.add_string b "\x81\x00"));
  (match Wire.Countmin.decode (sparse_blob (fun b -> v b 2; v b 0; v b 1)) with
  | Error (Wire.Codec.Truncated _) -> ()
  | _ -> Alcotest.fail "fewer pairs than nnz: expected Truncated");
  (* A header claiming 2^34 cells is rejected before any allocation, in
     either layout; the dense one has no cells behind it at all. *)
  List.iter
    (fun kind ->
      expect_corrupt
        (Printf.sprintf "kind %d claims 256 x 2^26 cells" kind)
        (Wire.Codec.encode ~kind (fun b ->
             Wire.Codec.u32 b 256;
             Wire.Codec.u32 b (1 lsl 26);
             for _ = 1 to 256 do
               Wire.Codec.int_ b 1;
               Wire.Codec.int_ b 0
             done;
             Wire.Codec.int_ b 0;
             if kind = Wire.Codec.countmin_sparse_kind then v b 0)))
    [ Wire.Codec.countmin_sparse_kind; Wire.Codec.countmin_kind ]

let test_uvarint_roundtrip () =
  List.iter
    (fun x ->
      let b = Buffer.create 16 in
      Wire.Codec.uvarint b x;
      let blob = Wire.Codec.encode ~kind:Wire.Codec.wal_record_kind (fun w -> Buffer.add_buffer w b) in
      match
        Wire.Codec.decode ~kind:Wire.Codec.wal_record_kind Wire.Codec.read_uvarint blob
      with
      | Ok y -> Alcotest.(check int) (Printf.sprintf "%d round-trips" x) x y
      | Error e -> Alcotest.fail (Wire.Codec.error_to_string e))
    [ 0; 1; 127; 128; 300; 16_383; 16_384; 1 lsl 35; max_int - 1; max_int ]

(* ------------------------- legacy dense images ------------------------- *)

(* Fixtures written by the dense (kind 1) encoder, which every WAL segment
   and checkpoint from before the sparse codec holds. *)
let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Bytes.of_string s

let test_legacy_blob () =
  let blob = read_file "data/countmin_v1.blob" in
  (match Wire.Codec.peek blob with
  | Ok (kind, _) -> Alcotest.(check string) "fixture kind" "countmin" kind
  | Error e -> Alcotest.fail (Wire.Codec.error_to_string e));
  match Wire.Countmin.decode blob with
  | Ok cm ->
      Alcotest.(check bool) "same sketch" true (cm_equal cm (cm_of sample));
      Alcotest.(check bytes) "re-encodes sparse" (Wire.Countmin.encode (cm_of sample))
        (Wire.Countmin.encode cm)
  | Error e -> Alcotest.fail (Wire.Codec.error_to_string e)

module Cm_target = Pipeline.Targets.Countmin (struct
  let seed = seed
  let rows = 3
  let width = 32
end)

module Legacy_recovery = Durable.Recovery.Make (Cm_target)

(* The fixture log: a checkpoint at epoch 2 (records 1-2 merged) and a
   segment of records 1..5, each 20 keys. *)
let fixture_keys e = List.init 20 (fun i -> ((e * 7) + (i * 13)) mod 50)

let test_legacy_wal () =
  match Legacy_recovery.recover ~dir:"data/wal_v1" () with
  | Error e -> Alcotest.fail e
  | Ok (cm, r) ->
      Alcotest.(check int) "checkpoint epoch" 2 r.Legacy_recovery.checkpoint_epoch;
      Alcotest.(check int) "replayed" 3 r.replayed;
      Alcotest.(check int) "skipped" 2 r.skipped;
      Alcotest.(check int) "decode failures" 0 r.decode_failures;
      Alcotest.(check int) "bytes truncated" 0 r.bytes_truncated;
      Alcotest.(check int) "epoch" 5 r.recovered_epoch;
      Alcotest.(check int) "published" 100 r.recovered_published;
      let want = cm_of (List.concat_map fixture_keys [ 1; 2; 3; 4; 5 ]) in
      Alcotest.(check bool) "same state" true (cm_equal cm want)

(* ------------------------- properties ------------------------- *)

let qcheck_tests =
  let elems = QCheck.(list_of_size (Gen.int_range 0 300) (int_bound 50)) in
  let never_raises c blob =
    match c.decode_any blob with Ok () | Error _ -> true
  in
  List.map QCheck_alcotest.to_alcotest
    (List.map
       (fun c ->
         QCheck.Test.make
           ~name:(c.label ^ " round-trips any stream")
           ~count:60 elems c.roundtrips)
       codecs
    @ [
        QCheck.Test.make ~name:"countmin-sparse round-trips any image"
          ~count:200 cm_image_arb sparse_roundtrip;
        QCheck.Test.make ~name:"random bytes never raise" ~count:200
          QCheck.(string_of_size (Gen.int_range 0 64))
          (fun s ->
            let blob = Bytes.of_string s in
            List.for_all (fun c -> never_raises c blob) codecs);
        QCheck.Test.make ~name:"random prefix damage never raises" ~count:100
          QCheck.(pair elems (int_bound 1000))
          (fun (xs, cut) ->
            List.for_all
              (fun c ->
                let blob = c.blob_of xs in
                let len = min cut (Bytes.length blob) in
                never_raises c (Bytes.sub blob 0 len))
              codecs);
      ])

(* ------------------------- segment scanning ------------------------- *)

(* A segment buffer is a concatenation of frames; [Wire.Segment.scan] must
   return exactly the valid prefix, whatever the damage shape. *)

let frame_of_int i =
  Wire.Codec.encode ~kind:Wire.Codec.wal_record_kind (fun b ->
      Wire.Codec.int_ b i)

let concat_frames frames = Bytes.concat Bytes.empty frames

let test_segment_scan_clean () =
  let frames = List.init 5 frame_of_int in
  let s = Wire.Segment.scan (concat_frames frames) in
  Alcotest.(check int) "all frames" 5 (Wire.Segment.frame_count s);
  Alcotest.(check bool) "clean tail" true (s.Wire.Segment.tail = Wire.Segment.Clean);
  List.iteri
    (fun i f ->
      Alcotest.(check bytes) (Printf.sprintf "frame %d intact" i)
        (frame_of_int i) f)
    s.Wire.Segment.frames;
  let empty = Wire.Segment.scan Bytes.empty in
  Alcotest.(check int) "empty buffer, no frames" 0
    (Wire.Segment.frame_count empty);
  Alcotest.(check bool) "empty buffer clean" true
    (empty.Wire.Segment.tail = Wire.Segment.Clean)

let test_segment_scan_torn_tail_every_cut () =
  (* Truncate a 3-frame buffer at every byte offset: the scan must always
     yield the frames wholly before the cut and report the exact remainder
     as dropped. *)
  let frames = List.init 3 frame_of_int in
  let buf = concat_frames frames in
  let ends =
    (* cumulative end offsets of each frame *)
    List.rev
      (List.fold_left
         (fun acc f ->
           let prev = match acc with [] -> 0 | e :: _ -> e in
           (prev + Bytes.length f) :: acc)
         [] frames)
  in
  for cut = 0 to Bytes.length buf - 1 do
    let s = Wire.Segment.scan (Bytes.sub buf 0 cut) in
    let expect = List.length (List.filter (fun e -> e <= cut) ends) in
    if Wire.Segment.frame_count s <> expect then
      Alcotest.failf "cut %d: %d frames, want %d" cut
        (Wire.Segment.frame_count s) expect;
    match s.Wire.Segment.tail with
    | Wire.Segment.Clean ->
        if not (List.mem cut (0 :: ends)) then
          Alcotest.failf "cut %d: clean tail mid-frame" cut
    | Wire.Segment.Torn { valid_prefix; dropped_bytes; _ } ->
        Alcotest.(check int)
          (Printf.sprintf "cut %d: prefix + dropped = cut" cut)
          cut (valid_prefix + dropped_bytes)
  done

let test_segment_scan_corruption_stops () =
  let frames = List.init 4 frame_of_int in
  let buf = concat_frames frames in
  let f0 = Bytes.length (frame_of_int 0) in
  (* Flip a payload byte of frame 1: frames 2..3 are after the hole and must
     not be yielded even though they are themselves intact. *)
  let dam = Bytes.copy buf in
  let off = f0 + Wire.Codec.header_size in
  Bytes.set_uint8 dam off (Bytes.get_uint8 dam off lxor 0x01);
  let s = Wire.Segment.scan dam in
  Alcotest.(check int) "only the prefix" 1 (Wire.Segment.frame_count s);
  (match s.Wire.Segment.tail with
  | Wire.Segment.Torn { valid_prefix; reason; _ } ->
      Alcotest.(check int) "cut at frame 1" f0 valid_prefix;
      Alcotest.(check bool) "checksum named" true
        (String.length reason > 0)
  | Wire.Segment.Clean -> Alcotest.fail "expected a torn tail");
  (* Garbage between frames: same rule. *)
  let gar =
    Bytes.concat Bytes.empty [ frame_of_int 0; Bytes.of_string "JUNK"; frame_of_int 1 ]
  in
  let s = Wire.Segment.scan gar in
  Alcotest.(check int) "prefix before garbage" 1 (Wire.Segment.frame_count s)

let () =
  Alcotest.run "wire"
    [
      ( "round-trip",
        [
          Alcotest.test_case "pinned sample" `Quick test_roundtrip_sample;
          Alcotest.test_case "empty sketches" `Quick test_roundtrip_empty;
          Alcotest.test_case "peek" `Quick test_peek;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "every truncation rejected" `Quick test_truncation;
          Alcotest.test_case "every bit flip rejected" `Quick test_bit_flips;
          Alcotest.test_case "wrong magic" `Quick test_wrong_magic;
          Alcotest.test_case "future version" `Quick test_future_version;
          Alcotest.test_case "wrong kind" `Quick test_wrong_kind;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_garbage;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "canonical bytes" `Quick test_sparse_canonical;
          Alcotest.test_case "full sketch smaller than dense" `Quick
            test_sparse_full_is_smaller;
          Alcotest.test_case "malformed payloads are Corrupt" `Quick
            test_sparse_malformed;
          Alcotest.test_case "uvarint round-trips" `Quick test_uvarint_roundtrip;
          Alcotest.test_case "legacy dense blob decodes" `Quick test_legacy_blob;
          Alcotest.test_case "legacy dense WAL recovers" `Quick test_legacy_wal;
        ] );
      ( "segment",
        [
          Alcotest.test_case "clean scan" `Quick test_segment_scan_clean;
          Alcotest.test_case "torn tail at every cut" `Quick
            test_segment_scan_torn_tail_every_cut;
          Alcotest.test_case "corruption ends the scan" `Quick
            test_segment_scan_corruption_stops;
        ] );
      ("properties", qcheck_tests);
    ]
