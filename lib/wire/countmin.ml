(* Two payloads share one header:

     rows u32 | width u32 | rows × (a i64, b i64) coefficients | n i64

   Kind countmin-sparse (written) then carries
     nnz uvarint | nnz × (gap uvarint, value uvarint)
   over the nonzero cells in row-major order, where a cell's flat index is
   row·width + col and gap = index − previous index − 1 (the first cell's
   previous index is −1). Kind countmin (legacy dense, read only) carries
     rows·width cell counters i64. *)

let kind = Codec.countmin_sparse_kind
let legacy_kind = Codec.countmin_kind

let max_rows = 256
let max_width = 1 lsl 26

(* A sparse image is small whatever the dimensions it claims, and both
   decoders allocate the matrix before reading a cell, so the header may
   ask for at most 2^24 cells, 128 MiB. *)
let max_cells = 1 lsl 24

let encode cm =
  let family = Sketches.Countmin.family cm in
  match Hashing.Family.coefficients family with
  | None ->
      invalid_arg
        "Wire.Countmin.encode: family has explicit (non-universal) rows and \
         cannot be serialized"
  | Some coeffs ->
      let d = Sketches.Countmin.rows cm and w = Sketches.Countmin.width cm in
      if d * w > max_cells then
        invalid_arg "Wire.Countmin.encode: more than 2^24 cells";
      let pairs = Buffer.create 1024 and nnz = ref 0 and prev = ref (-1) in
      Sketches.Countmin.iter_nonzero cm (fun i c ->
          Codec.uvarint pairs (i - !prev - 1);
          Codec.uvarint pairs c;
          prev := i;
          incr nnz);
      Codec.encode ~kind (fun b ->
          Codec.u32 b d;
          Codec.u32 b w;
          Array.iter
            (fun (a, bc) ->
              Codec.int_ b a;
              Codec.int_ b bc)
            coeffs;
          Codec.int_ b (Sketches.Countmin.updates cm);
          Codec.uvarint b !nnz;
          Buffer.add_buffer b pairs)

let read_header r =
  let d = Codec.read_u32 r in
  let w = Codec.read_u32 r in
  if d < 1 || d > max_rows then Codec.corrupt "rows %d outside [1, %d]" d max_rows;
  if w < 1 || w > max_width then Codec.corrupt "width %d outside [1, %d]" w max_width;
  if d * w > max_cells then Codec.corrupt "%d cells exceed 2^24" (d * w);
  let coeffs =
    Array.init d (fun _ ->
        let a = Codec.read_int r in
        let b = Codec.read_int r in
        (a, b))
  in
  let family = Hashing.Family.of_coefficients ~width:w coeffs in
  let n = Codec.read_int r in
  (d, w, family, n)

let parse_sparse r =
  let d, w, family, n = read_header r in
  let total = d * w in
  let nnz = Codec.read_uvarint r in
  if nnz > total then Codec.corrupt "%d nonzero cells in a %d-cell sketch" nnz total;
  Sketches.Countmin.of_nonzero ~family ~n (fun set ->
      let prev = ref (-1) in
      for _ = 1 to nnz do
        let gap = Codec.read_uvarint r in
        if gap >= total - 1 - !prev then Codec.corrupt "cell index beyond %d" total;
        let i = !prev + 1 + gap in
        let c = Codec.read_uvarint r in
        if c = 0 then Codec.corrupt "zero-valued cell %d" i;
        set i c;
        prev := i
      done)

let parse_dense r =
  let d, w, family, n = read_header r in
  Sketches.Countmin.of_nonzero ~family ~n (fun set ->
      for i = 0 to (d * w) - 1 do
        let c = Codec.read_int r in
        if c <> 0 then set i c
      done)

let decode blob =
  match Codec.frame_kind blob with
  | Ok k when k = legacy_kind -> Codec.decode ~kind:legacy_kind parse_dense blob
  | _ -> Codec.decode ~kind parse_sparse blob
