module Payload = Netsim.Payload

type t = { width : int; height : int; depth : int; pixels : int array }

let valid_depth = function 8 | 4 | 2 -> true | _ -> false

let pixel_bytes ~width ~height ~depth = (width * height * depth + 7) / 8

let encoded_size t = 6 + pixel_bytes ~width:t.width ~height:t.height ~depth:t.depth

let encode t =
  if not (valid_depth t.depth) then invalid_arg "Image.encode: bad depth";
  if Array.length t.pixels <> t.width * t.height then
    invalid_arg "Image.encode: pixel count mismatch";
  let writer = Payload.Writer.create () in
  Payload.Writer.u8 writer (Char.code 'I');
  Payload.Writer.u8 writer t.depth;
  Payload.Writer.u16 writer t.width;
  Payload.Writer.u16 writer t.height;
  let per_byte = 8 / t.depth in
  let mask = (1 lsl t.depth) - 1 in
  let count = t.width * t.height in
  let byte = ref 0 in
  let filled = ref 0 in
  for i = 0 to count - 1 do
    byte := (!byte lsl t.depth) lor (t.pixels.(i) land mask);
    incr filled;
    if !filled = per_byte then begin
      Payload.Writer.u8 writer !byte;
      byte := 0;
      filled := 0
    end
  done;
  if !filled > 0 then
    Payload.Writer.u8 writer (!byte lsl (t.depth * (per_byte - !filled)));
  Payload.Writer.finish writer

(* The one well-formedness rule: magic 'I', a depth of 8, 4 or 2 bits,
   nonzero dimensions, and exactly the pixel bytes those imply. *)
let header payload =
  if Payload.length payload < 6 then None
  else
    let base, off = Payload.backing payload in
    let depth = Char.code base.[off + 1] in
    let width = String.get_uint16_be base (off + 2) in
    let height = String.get_uint16_be base (off + 4) in
    if base.[off] <> 'I' || (not (valid_depth depth)) || width = 0 || height = 0
    then None
    else if Payload.length payload <> 6 + pixel_bytes ~width ~height ~depth then
      None
    else Some (depth, width, height)

let decode payload =
  match header payload with
  | None -> None
  | Some (depth, width, height) ->
      let count = width * height in
      let pixels = Array.make count 0 in
      let per_byte = 8 / depth in
      let mask = (1 lsl depth) - 1 in
      let base, off = Payload.backing payload in
      for i = 0 to count - 1 do
        let byte = Char.code base.[off + 6 + (i / per_byte)] in
        let slot = per_byte - 1 - (i mod per_byte) in
        pixels.(i) <- (byte lsr (slot * depth)) land mask
      done;
      Some { width; height; depth; pixels }

let distill t =
  if t.width <= 1 && t.height <= 1 && t.depth <= 2 then t
  else begin
    let width = Int.max 1 (t.width / 2) in
    let height = Int.max 1 (t.height / 2) in
    let depth = Int.max 2 (t.depth / 2) in
    let pixels = Array.make (width * height) 0 in
    let get x y =
      let x = Int.min x (t.width - 1) and y = Int.min y (t.height - 1) in
      t.pixels.((y * t.width) + x)
    in
    (* 2x2 box filter in the source depth, then requantize. *)
    let shift = t.depth - depth in
    for y = 0 to height - 1 do
      for x = 0 to width - 1 do
        let sum =
          get (2 * x) (2 * y)
          + get ((2 * x) + 1) (2 * y)
          + get (2 * x) ((2 * y) + 1)
          + get ((2 * x) + 1) ((2 * y) + 1)
        in
        pixels.((y * width) + x) <- (sum / 4) lsr shift
      done
    done;
    { width; height; depth; pixels }
  end

let rec distill_n t n = if n <= 0 then t else distill_n (distill t) (n - 1)

let synth ~width ~height ~seed =
  if width <= 0 || height <= 0 then invalid_arg "Image.synth: empty image";
  let pixels = Array.make (width * height) 0 in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      let gradient = 255 * (x + y) / (width + height) in
      let texture = (x * 31 + y * 17 + seed * 7919) mod 64 in
      pixels.((y * width) + x) <- Int.min 255 ((gradient + texture) / 2 * 2)
    done
  done;
  { width; height; depth = 8; pixels }

(* Sample [b] at [a]'s resolution, both scaled to 8-bit range. *)
let rms_error a b =
  let to8 depth v = v lsl (8 - depth) in
  let acc = ref 0.0 in
  for y = 0 to a.height - 1 do
    for x = 0 to a.width - 1 do
      let bx = x * b.width / a.width and by = y * b.height / a.height in
      let va = to8 a.depth a.pixels.((y * a.width) + x) in
      let vb = to8 b.depth b.pixels.((by * b.width) + bx) in
      let d = float_of_int (va - vb) in
      acc := !acc +. (d *. d)
    done
  done;
  sqrt (!acc /. float_of_int (a.width * a.height))

let equal a b =
  a.width = b.width && a.height = b.height && a.depth = b.depth
  && a.pixels = b.pixels

let pp fmt t =
  Format.fprintf fmt "<image %dx%d @%dbit, %dB>" t.width t.height t.depth
    (encoded_size t)
