module Payload = Netsim.Payload

type quality = Stereo16 | Mono16 | Mono8

let quality_code = function Stereo16 -> 0 | Mono16 -> 1 | Mono8 -> 2

let quality_of_code = function
  | 0 -> Some Stereo16
  | 1 -> Some Mono16
  | 2 -> Some Mono8
  | _ -> None

let degraded_from a b = quality_code a >= quality_code b

type t = { seq : int; quality : quality; samples : int array }

let frame_count t =
  match t.quality with
  | Stereo16 -> Array.length t.samples / 2
  | Mono16 | Mono8 -> Array.length t.samples

let bytes_per_frame = function Stereo16 -> 4 | Mono16 -> 2 | Mono8 -> 1

let clamp16 v = if v > 32767 then 32767 else if v < -32768 then -32768 else v
let clamp8 v = if v > 127 then 127 else if v < -128 then -128 else v

let encode t =
  let writer = Payload.Writer.create () in
  Payload.Writer.u32 writer t.seq;
  Payload.Writer.u8 writer (quality_code t.quality);
  Payload.Writer.u16 writer (frame_count t);
  (match t.quality with
  | Stereo16 | Mono16 ->
      Array.iter
        (fun sample -> Payload.Writer.u16 writer (clamp16 sample land 0xffff))
        t.samples
  | Mono8 ->
      Array.iter
        (fun sample -> Payload.Writer.u8 writer (clamp8 sample land 0xff))
        t.samples);
  Payload.Writer.finish writer

let header_bytes = 7

(* The one well-formedness rule: a 7-byte header with a known quality
   code, followed by exactly [frames] frames of that quality. *)
let header payload =
  let len = Payload.length payload in
  if len < header_bytes then None
  else
    let base, off = Payload.backing payload in
    match quality_of_code (Char.code base.[off + 4]) with
    | None -> None
    | Some quality ->
        let frames = String.get_uint16_be base (off + 5) in
        if len - header_bytes <> frames * bytes_per_frame quality then None
        else
          let seq =
            (String.get_uint16_be base off lsl 16)
            lor String.get_uint16_be base (off + 2)
          in
          Some (seq, quality, frames)

let decode payload =
  match header payload with
  | None -> None
  | Some (seq, quality, frames) ->
      let base, off = Payload.backing payload in
      let body = off + header_bytes in
      let samples =
        match quality with
        | Stereo16 | Mono16 ->
            Array.init
              (frames * bytes_per_frame quality / 2)
              (fun i -> String.get_int16_be base (body + (2 * i)))
        | Mono8 -> Array.init frames (fun i -> String.get_int8 base (body + i))
      in
      Some { seq; quality; samples }

let to_mono16 t =
  match t.quality with
  | Stereo16 ->
      let frames = frame_count t in
      let mono = Array.make frames 0 in
      for i = 0 to frames - 1 do
        mono.(i) <- (t.samples.(2 * i) + t.samples.((2 * i) + 1)) / 2
      done;
      { t with quality = Mono16; samples = mono }
  | Mono16 -> t
  | Mono8 ->
      { t with quality = Mono16; samples = Array.map (fun s -> s lsl 8) t.samples }

let to_mono8 t =
  let mono = to_mono16 t in
  match t.quality with
  | Mono8 -> t
  | Stereo16 | Mono16 ->
      {
        mono with
        quality = Mono8;
        samples = Array.map (fun s -> clamp8 (s asr 8)) mono.samples;
      }

let degrade t target =
  if not (degraded_from target t.quality) then t
  else
    match target with
    | Stereo16 -> t
    | Mono16 -> to_mono16 t
    | Mono8 -> to_mono8 t

let restore t =
  match t.quality with
  | Stereo16 -> t
  | Mono16 | Mono8 ->
      let mono = to_mono16 t in
      let frames = Array.length mono.samples in
      let stereo = Array.make (2 * frames) 0 in
      for i = 0 to frames - 1 do
        stereo.(2 * i) <- mono.samples.(i);
        stereo.((2 * i) + 1) <- mono.samples.(i)
      done;
      { t with quality = Stereo16; samples = stereo }

(* Wire transcoders: the record functions above, fused with [decode] and
   [encode] into one pass from the source bytes to a fresh frame of the
   target quality.  Every sample takes the same arithmetic as the record
   path — [(l + r) / 2] truncating toward zero, [clamp8 (s asr 8)],
   [s lsl 8] — so the bytes are identical. *)

(* A frame of [target] quality with [frames] frames whose sequence number
   and frame count are copied from the header at [base.[off]]; the
   samples are left for the caller to write. *)
let fresh base off target frames =
  let out = Bytes.create (header_bytes + (frames * bytes_per_frame target)) in
  Bytes.blit_string base off out 0 4;
  Bytes.set_uint8 out 4 (quality_code target);
  Bytes.blit_string base (off + 5) out 5 2;
  out

let finish out = Payload.of_string (Bytes.unsafe_to_string out)

let degrade_wire payload target =
  match header payload with
  | None -> None
  | Some (_, source, frames) ->
      if quality_code target <= quality_code source then Some payload
      else
        let base, off = Payload.backing payload in
        let src = off + header_bytes in
        let out = fresh base off target frames in
        let stereo_mix i =
          (String.get_int16_be base (src + (4 * i))
          + String.get_int16_be base (src + (4 * i) + 2))
          / 2
        in
        (match (source, target) with
        | Stereo16, Mono16 ->
            for i = 0 to frames - 1 do
              Bytes.set_uint16_be out
                (header_bytes + (2 * i))
                (clamp16 (stereo_mix i) land 0xffff)
            done
        | Stereo16, Mono8 ->
            for i = 0 to frames - 1 do
              Bytes.set_uint8 out (header_bytes + i)
                (clamp8 (stereo_mix i asr 8) land 0xff)
            done
        | _ ->
            (* Mono16 -> Mono8, the only other strictly worse target. *)
            for i = 0 to frames - 1 do
              Bytes.set_uint8 out (header_bytes + i)
                (clamp8 (String.get_int16_be base (src + (2 * i)) asr 8)
                land 0xff)
            done);
        Some (finish out)

let restore_wire payload =
  match header payload with
  | None -> None
  | Some (_, Stereo16, _) -> Some payload
  | Some (_, source, frames) ->
      let base, off = Payload.backing payload in
      let src = off + header_bytes in
      let out = fresh base off Stereo16 frames in
      let both i s =
        let v = clamp16 s land 0xffff in
        Bytes.set_uint16_be out (header_bytes + (4 * i)) v;
        Bytes.set_uint16_be out (header_bytes + (4 * i) + 2) v
      in
      (match source with
      | Mono8 ->
          for i = 0 to frames - 1 do
            both i (String.get_int8 base (src + i) lsl 8)
          done
      | Mono16 | Stereo16 ->
          for i = 0 to frames - 1 do
            both i (String.get_int16_be base (src + (2 * i)))
          done);
      Some (finish out)

(* Integer sine-ish oscillator: a second-order resonator would drift in
   integer arithmetic, so use a triangle wave with a slow wobble — fully
   deterministic and exercises the full 16-bit range. *)
let synth_wire ~seq ~frames ~phase =
  let out = Bytes.create (header_bytes + (4 * frames)) in
  Bytes.set_uint16_be out 0 ((seq lsr 16) land 0xffff);
  Bytes.set_uint16_be out 2 (seq land 0xffff);
  Bytes.set_uint8 out 4 (quality_code Stereo16);
  Bytes.set_uint16_be out 5 (frames land 0xffff);
  for i = 0 to frames - 1 do
    let x = (phase + i) mod 200 in
    let tri = if x < 100 then (x * 600) - 30000 else ((200 - x) * 600) - 30000 in
    let wobble = ((phase + i) mod 37) * 100 in
    Bytes.set_uint16_be out (header_bytes + (4 * i)) (clamp16 (tri + wobble) land 0xffff);
    Bytes.set_uint16_be out
      (header_bytes + (4 * i) + 2)
      (clamp16 (tri - wobble) land 0xffff)
  done;
  finish out

let synth ~seq ~frames ~phase = Option.get (decode (synth_wire ~seq ~frames ~phase))

let rms_error a b =
  let ra = restore a and rb = restore b in
  let n = Int.min (Array.length ra.samples) (Array.length rb.samples) in
  if n = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let d = float_of_int (ra.samples.(i) - rb.samples.(i)) in
      acc := !acc +. (d *. d)
    done;
    sqrt (!acc /. float_of_int n)
  end

let equal a b = a.seq = b.seq && a.quality = b.quality && a.samples = b.samples

let quality_name = function
  | Stereo16 -> "16-bit stereo"
  | Mono16 -> "16-bit mono"
  | Mono8 -> "8-bit mono"

let pp fmt t =
  Format.fprintf fmt "<audio seq=%d %s frames=%d>" t.seq (quality_name t.quality)
    (frame_count t)
