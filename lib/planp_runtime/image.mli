(** Raster images and distillation — the paper's §5 "integration of image
    distillation support into PLAN-P" for adapting image traffic to
    low-bandwidth links.

    A grayscale raster with power-of-two friendly distillation: one
    distillation step halves both dimensions (2x2 box filter) and halves
    the pixel depth (8 → 4 → 2 bits), cutting the encoded size roughly by
    a factor of 8.

    Wire layout: [u8 'I' ; u8 depth ; u16 width ; u16 height ; pixels],
    pixels row-major, packed big-endian within bytes for depths < 8. *)

type t = {
  width : int;
  height : int;
  depth : int;  (** bits per pixel: 8, 4 or 2 *)
  pixels : int array;  (** row-major, each in [0, 2^depth) *)
}

val encode : t -> Netsim.Payload.t

(** [header payload] validates [payload] as an image without touching its
    pixels: magic ['I'], a depth of 8, 4 or 2, nonzero width and height,
    and exactly the pixel bytes those imply.  Returns
    [(depth, width, height)], or [None] when any of these fails. *)
val header : Netsim.Payload.t -> (int * int * int) option

(** [decode payload] is [None] exactly when {!header} is. *)
val decode : Netsim.Payload.t -> t option

(** [encoded_size t] without building the payload. *)
val encoded_size : t -> int

(** [distill t] — one step: half resolution, half depth (floor 2 bits).
    Distilling a 1-pixel 2-bit image is the identity. *)
val distill : t -> t

(** [distill_n t n] applies [distill] [n] times. *)
val distill_n : t -> int -> t

(** [synth ~width ~height ~seed] generates a deterministic 8-bit test
    image (smooth gradients + seeded texture). *)
val synth : width:int -> height:int -> seed:int -> t

(** [rms_error a b] — root-mean-square pixel error after scaling both to
    [a]'s dimensions and 8-bit range; quantifies distillation loss. *)
val rms_error : t -> t -> float

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
