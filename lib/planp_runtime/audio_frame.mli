(** PCM audio frames — the payload format of the audio broadcasting
    experiment (§3.1) and of the audio primitives.

    A frame holds a sequence number, a quality level and PCM samples:

    - {!Stereo16}: interleaved left/right signed 16-bit samples
      (CD quality, 176.4 kB/s at 44.1 kHz — the paper's "176kb/s");
    - {!Mono16}: signed 16-bit mono (88.2 kB/s);
    - {!Mono8}: signed 8-bit mono (44.1 kB/s).

    Wire layout: [u32 seq ; u8 quality ; u16 sample-frames ; samples], with
    16-bit samples big-endian two's complement. *)

type quality = Stereo16 | Mono16 | Mono8

val quality_code : quality -> int

val quality_of_code : int -> quality option

(** [degraded_from a b] holds when [a] is at most as good as [b]. *)
val degraded_from : quality -> quality -> bool

type t = {
  seq : int;
  quality : quality;
  samples : int array;
      (** [Stereo16]: interleaved L,R (length [2 * frame_count]); mono:
          one sample per frame. 16-bit range or 8-bit range per quality. *)
}

(** [frame_count t] is the number of sample frames (per-channel samples). *)
val frame_count : t -> int

(** [bytes_per_frame quality] is 4, 2 or 1. *)
val bytes_per_frame : quality -> int

val encode : t -> Netsim.Payload.t

(** [header payload] validates [payload] as a frame without touching its
    samples and returns [(seq, quality, frames)].  It is the single
    well-formedness rule every reader applies: at least 7 bytes, a quality
    code of 0, 1 or 2, and exactly [frames * bytes_per_frame quality]
    bytes after the header.  [None] when any of these fails. *)
val header : Netsim.Payload.t -> (int * quality * int) option

(** [decode payload] is [None] exactly when {!header} is. *)
val decode : Netsim.Payload.t -> t option

(** [degrade t quality] converts downward (averaging channels, truncating
    to 8 bits). Requesting a better-or-equal quality returns [t]. *)
val degrade : t -> quality -> t

(** [restore t] re-expands to [Stereo16] layout (duplicating the mono
    channel, shifting 8-bit samples up); the information lost by
    degradation is not recovered, only the format. *)
val restore : t -> t

(** {2 Wire transcoders}

    The packet path works on payloads: each transcoder validates with
    {!header}, reads the source bytes in place and writes one fresh
    payload of the target size, with no intermediate sample array.  When
    the target is the same as or better than the source the input payload
    itself is returned; that is byte-identical to the record path, since
    [encode (decode p)] is the identity on a valid frame.  All return
    [None] exactly when {!header} does, and otherwise agree byte for byte
    with the record functions:

    - [degrade_wire p q] with [encode (degrade (decode p) q)];
    - [restore_wire p] with [encode (restore (decode p))];
    - [synth_wire ~seq ~frames ~phase] with [encode (synth ...)]. *)

val degrade_wire : Netsim.Payload.t -> quality -> Netsim.Payload.t option
val restore_wire : Netsim.Payload.t -> Netsim.Payload.t option
val synth_wire : seq:int -> frames:int -> phase:int -> Netsim.Payload.t

(** [synth ~seq ~frames ~phase] generates a deterministic sine-like test
    signal at [Stereo16]; [phase] seeds the oscillator so successive frames
    are continuous.  [frames] must fit the 16-bit frame count. *)
val synth : seq:int -> frames:int -> phase:int -> t

(** Root-mean-square error between the [Stereo16] restorations of two
    frames, used by tests to check degradation monotonicity. *)
val rms_error : t -> t -> float

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
