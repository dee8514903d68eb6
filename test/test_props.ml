(* Property-based tests (qcheck): data-structure invariants, codec
   roundtrips, and — most valuable — differential testing of the three
   execution backends on randomly generated PLAN-P expressions. *)

module Q = QCheck
module Ast = Planp.Ast
module Value = Planp_runtime.Value
module World = Planp_runtime.World
module Interp = Planp_runtime.Interp
module Specialize = Planp_jit.Specialize
module Bytecomp = Planp_jit.Bytecomp
module Vm = Planp_jit.Vm
module Payload = Netsim.Payload
module Audio_frame = Planp_runtime.Audio_frame
module Image = Planp_runtime.Image

let () = Planp_runtime.Prims.install ()

(* ---------- simple invariants ---------- *)

let addr_roundtrip =
  Q.Test.make ~name:"addr: octets roundtrip through string" ~count:500
    Q.(quad (int_bound 255) (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c, d) ->
      let addr = Netsim.Addr.of_octets a b c d in
      Netsim.Addr.of_string (Netsim.Addr.to_string addr) = addr)

let heap_sorts =
  Q.Test.make ~name:"heap: pops in nondecreasing time order" ~count:200
    Q.(list (float_bound_inclusive 1000.0))
    (fun times ->
      let heap = Netsim.Heap.create () in
      List.iter (fun t -> Netsim.Heap.add heap ~time:t ()) times;
      let rec drain last =
        match Netsim.Heap.pop heap with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain neg_infinity)

let sched_matches_reference_model =
  (* Differential test of the calendar queue against a sorted-list model
     under random interleavings of add and pop. Times sit on a coarse grid
     so equal-time ties are frequent (exercising FIFO order), and the tiny
     8-bucket wheel forces constant horizon overflow and rotation. *)
  let op_gen =
    Q.Gen.(
      frequency
        [ (3, map (fun n -> `Add (float_of_int n /. 4.0)) (int_bound 40));
          (2, return `Pop) ])
  in
  Q.Test.make ~name:"sched: interleaved add/pop matches sorted reference"
    ~count:300
    (Q.make Q.Gen.(list_size (int_range 0 200) op_gen))
    (fun ops ->
      let sched = Netsim.Sched.create ~nbuckets:8 ~dummy:(-1) () in
      let cell = { Netsim.Sched.v = 0.0 } in
      let model = ref [] (* sorted by (time, insertion order) *) in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | `Add time ->
              let id = !next in
              incr next;
              Netsim.Sched.add sched ~time id;
              let rec ins = function
                | (t', id') :: rest when t' <= time -> (t', id') :: ins rest
                | rest -> (time, id) :: rest
              in
              model := ins !model;
              true
          | `Pop -> (
              match !model with
              | [] -> Netsim.Sched.is_empty sched
              | (t, id) :: rest ->
                  model := rest;
                  (not (Netsim.Sched.is_empty sched))
                  && Netsim.Sched.pop sched ~into:cell = id
                  && cell.Netsim.Sched.v = t))
        ops
      && Netsim.Sched.size sched = List.length !model)

let bucket_int_float_parity =
  (* The integer hot-path bucketing must agree with the float reference on
     every int, especially at the power-of-two slot boundaries. *)
  Q.Test.make ~name:"registry: bucket_of_int agrees with bucket_of" ~count:500
    (Q.make
       Q.Gen.(
         oneof
           [ int_bound 1_000_000;
             map (fun k -> (1 lsl k) - 1) (int_range 0 52);
             map (fun k -> 1 lsl k) (int_range 0 52);
             map (fun k -> (1 lsl k) + 1) (int_range 0 51);
             map Int.neg (int_bound 1000) ]))
    (fun v ->
      Obs.Registry.bucket_of_int v = Obs.Registry.bucket_of (float_of_int v))

let payload_u32_roundtrip =
  Q.Test.make ~name:"payload: u32 write/read roundtrip" ~count:500
    Q.(list_of_size (Q.Gen.int_range 0 20) (int_bound 0xFFFFFF))
    (fun values ->
      let w = Payload.Writer.create () in
      List.iter (Payload.Writer.u32 w) values;
      let r = Payload.Reader.create (Payload.Writer.finish w) in
      List.for_all (fun v -> Payload.Reader.u32 r = v) values
      && Payload.Reader.remaining r = 0)

let audio_frame_roundtrip =
  let sample = Q.Gen.int_range (-32768) 32767 in
  Q.Test.make ~name:"audio: encode/decode roundtrip (stereo16)" ~count:200
    (Q.make
       Q.Gen.(
         pair (int_range 0 100000) (list_size (int_range 0 64) (pair sample sample))))
    (fun (seq, pairs) ->
      let samples = Array.of_list (List.concat_map (fun (l, r) -> [ l; r ]) pairs) in
      let frame = { Audio_frame.seq; quality = Audio_frame.Stereo16; samples } in
      match Audio_frame.decode (Audio_frame.encode frame) with
      | Some decoded -> Audio_frame.equal frame decoded
      | None -> false)

let audio_degrade_size =
  Q.Test.make ~name:"audio: degradation shrinks the wire size" ~count:100
    Q.(int_range 1 200)
    (fun frames ->
      let frame = Audio_frame.synth ~seq:0 ~frames ~phase:frames in
      let size q =
        Payload.length (Audio_frame.encode (Audio_frame.degrade frame q))
      in
      size Audio_frame.Stereo16 > size Audio_frame.Mono16
      && size Audio_frame.Mono16 > size Audio_frame.Mono8)

(* ---------- audio: wire transcoders against the record path ---------- *)

(* Samples weighted toward the range ends, and stereo pairs toward
   negative odd sums, where [(l + r) / 2] and [asr 1] disagree. *)
let audio_frame_gen =
  let open Q.Gen in
  let s16 =
    frequency
      [ (3, int_range (-32768) 32767);
        (2, oneofl [ -32768; -32767; 32767; 32766; -257; -256; -255; -1; 0; 1 ]) ]
  in
  let s8 = frequency [ (3, int_range (-128) 127); (1, oneofl [ -128; 127; -1; 0 ]) ] in
  let odd_negative =
    map2 (fun l d -> (l, -l - ((2 * d) + 1))) (int_range (-16384) 0) (int_bound 16383)
  in
  let stereo = frequency [ (2, pair s16 s16); (1, odd_negative) ] in
  let* seq = oneof [ int_bound 100_000; return 0xffff_ffff; int_bound 0xffff_ffff ] in
  let* frames = int_range 0 64 in
  let* quality, samples =
    oneof
      [ map
          (fun pairs ->
            ( Audio_frame.Stereo16,
              Array.of_list (List.concat_map (fun (l, r) -> [ l; r ]) pairs) ))
          (list_repeat frames stereo);
        map (fun s -> (Audio_frame.Mono16, Array.of_list s)) (list_repeat frames s16);
        map (fun s -> (Audio_frame.Mono8, Array.of_list s)) (list_repeat frames s8) ]
  in
  return { Audio_frame.seq; quality; samples }

(* The same bytes presented three ways: contiguous, as a [sub] view at a
   non-zero offset, and as a [concat] rope split at [cut].  Built fresh for
   every use, because reading a rope flattens it in place. *)
let payload_forms bytes cut =
  let n = String.length bytes in
  let cut = if n = 0 then 0 else cut mod (n + 1) in
  [ (fun () -> Payload.of_string bytes);
    (fun () ->
      Payload.sub (Payload.of_string ("pre" ^ bytes ^ "post")) ~pos:3 ~len:n);
    (fun () ->
      Payload.concat
        [ Payload.of_string (String.sub bytes 0 cut);
          Payload.of_string (String.sub bytes cut (n - cut)) ]) ]

let audio_prim name args =
  let world, _, _ = World.dummy () in
  (Planp_runtime.Prim.find_exn name).Planp_runtime.Prim.impl world
    (Array.of_list args)

let wire_is expected = function
  | Some payload -> Payload.to_string payload = Payload.to_string expected
  | None -> false

let blob_is expected value =
  Payload.to_string (Value.as_blob value) = Payload.to_string expected

let audio_wire_parity =
  let qualities = Audio_frame.[ Stereo16; Mono16; Mono8 ] in
  Q.Test.make ~name:"audio: wire transcoders and primitives match the record path"
    ~count:300
    (Q.make
       ~print:(fun (frame, cut) ->
         Format.asprintf "%a cut=%d" Audio_frame.pp frame cut)
       Q.Gen.(pair audio_frame_gen (int_bound 1000)))
    (fun (frame, cut) ->
      let bytes = Payload.to_string (Audio_frame.encode frame) in
      (* The oracle decodes the wire bytes, as the primitives used to. *)
      let decoded = Option.get (Audio_frame.decode (Payload.of_string bytes)) in
      let frames = Audio_frame.frame_count decoded in
      let restored = Audio_frame.encode (Audio_frame.restore decoded) in
      List.for_all
        (fun form ->
          Audio_frame.header (form ())
          = Some (decoded.Audio_frame.seq, decoded.Audio_frame.quality, frames)
          && Audio_frame.equal decoded (Option.get (Audio_frame.decode (form ())))
          && wire_is restored (Audio_frame.restore_wire (form ()))
          && blob_is restored (audio_prim "audioRestore" [ Value.Vblob (form ()) ])
          && Value.as_int (audio_prim "audioSeq" [ Value.Vblob (form ()) ])
             = decoded.Audio_frame.seq
          && Value.as_int (audio_prim "audioQuality" [ Value.Vblob (form ()) ])
             = Audio_frame.quality_code decoded.Audio_frame.quality
          && Value.as_int (audio_prim "audioFrames" [ Value.Vblob (form ()) ])
             = frames
          && Value.as_int (audio_prim "audioBytes" [ Value.Vblob (form ()) ])
             = String.length bytes
          && List.for_all
               (fun target ->
                 let degraded =
                   Audio_frame.encode (Audio_frame.degrade decoded target)
                 in
                 wire_is degraded (Audio_frame.degrade_wire (form ()) target)
                 && blob_is degraded
                      (audio_prim "audioDegrade"
                         [ Value.Vblob (form ());
                           Value.Vint (Audio_frame.quality_code target) ]))
               qualities)
        (payload_forms bytes cut))

(* Fewer than 7 bytes, an unknown quality code, or a body one byte short
   or long: every reader rejects, every decoding primitive raises
   BadAudio. *)
let audio_malformed_rejected =
  let malformed_gen =
    let open Q.Gen in
    let* frame = audio_frame_gen in
    let bytes = Payload.to_string (Audio_frame.encode frame) in
    let n = String.length bytes in
    oneof
      [ map (fun k -> String.sub bytes 0 (k mod 7)) small_nat;
        map
          (fun code ->
            String.mapi (fun i c -> if i = 4 then Char.chr code else c) bytes)
          (int_range 3 255);
        return (String.sub bytes 0 (n - 1));
        map (fun c -> bytes ^ String.make 1 c) char ]
  in
  let raises_bad_audio name args =
    match audio_prim name args with
    | _ -> false
    | exception Value.Planp_raise "BadAudio" -> true
  in
  Q.Test.make ~name:"audio: malformed frames raise BadAudio from every primitive"
    ~count:300
    (Q.make
       ~print:(fun (bytes, cut) -> Printf.sprintf "%S cut=%d" bytes cut)
       Q.Gen.(pair malformed_gen (int_bound 1000)))
    (fun (bytes, cut) ->
      List.for_all
        (fun form ->
          Audio_frame.header (form ()) = None
          && Audio_frame.decode (form ()) = None
          && Audio_frame.restore_wire (form ()) = None
          && List.for_all
               (fun q -> Audio_frame.degrade_wire (form ()) q = None)
               Audio_frame.[ Stereo16; Mono16; Mono8 ]
          && List.for_all
               (fun name -> raises_bad_audio name [ Value.Vblob (form ()) ])
               [ "audioSeq"; "audioQuality"; "audioFrames"; "audioRestore" ]
          && List.for_all
               (fun level ->
                 raises_bad_audio "audioDegrade"
                   [ Value.Vblob (form ()); Value.Vint level ])
               [ 0; 1; 2 ])
        (payload_forms bytes cut))

(* ---------- image: header-only primitives against decode ---------- *)

let image_gen =
  let open Q.Gen in
  let* depth = oneofl [ 8; 4; 2 ] in
  let* width = int_range 1 24 in
  let* height = int_range 1 24 in
  let* pixels = array_repeat (width * height) (int_bound ((1 lsl depth) - 1)) in
  return { Image.width; height; depth; pixels }

let image_prim name args =
  let world, _, _ = World.dummy () in
  (Planp_runtime.Prim.find_exn name).Planp_runtime.Prim.impl world
    (Array.of_list args)

let image_header_parity =
  Q.Test.make ~name:"image: header primitives match the decoded image"
    ~count:300
    (Q.make
       ~print:(fun (image, cut) -> Format.asprintf "%a cut=%d" Image.pp image cut)
       Q.Gen.(pair image_gen (int_bound 1000)))
    (fun (image, cut) ->
      let bytes = Payload.to_string (Image.encode image) in
      let decoded = Option.get (Image.decode (Payload.of_string bytes)) in
      let int_of name form = Value.as_int (image_prim name [ Value.Vblob (form ()) ]) in
      List.for_all
        (fun form ->
          Image.header (form ())
          = Some (decoded.Image.depth, decoded.Image.width, decoded.Image.height)
          && Image.equal decoded (Option.get (Image.decode (form ())))
          && image_prim "isImage" [ Value.Vblob (form ()) ] = Value.vtrue
          && int_of "imgWidth" form = decoded.Image.width
          && int_of "imgHeight" form = decoded.Image.height
          && int_of "imgDepth" form = decoded.Image.depth
          && int_of "imgBytes" form = Image.encoded_size decoded)
        (payload_forms bytes cut))

(* Fewer than 6 bytes, a bad magic byte, depth 3, zero width, or a body
   one byte short or long: [header] and [decode] reject, [isImage] is
   false and every other primitive raises BadImage. *)
let image_malformed_rejected =
  let malformed_gen =
    let open Q.Gen in
    let* image = image_gen in
    let bytes = Payload.to_string (Image.encode image) in
    let n = String.length bytes in
    let set i c = String.mapi (fun j x -> if j = i then c else x) bytes in
    oneof
      [ map (fun k -> String.sub bytes 0 (k mod 6)) small_nat;
        map (fun c -> set 0 c) (char_range '\000' 'H');
        return (set 1 '\003');
        return (set 2 '\000' |> String.mapi (fun j x -> if j = 3 then '\000' else x));
        return (String.sub bytes 0 (n - 1));
        map (fun c -> bytes ^ String.make 1 c) char ]
  in
  let raises_bad_image name args =
    match image_prim name args with
    | _ -> false
    | exception Value.Planp_raise "BadImage" -> true
  in
  Q.Test.make ~name:"image: malformed images raise BadImage from every primitive"
    ~count:300
    (Q.make
       ~print:(fun (bytes, cut) -> Printf.sprintf "%S cut=%d" bytes cut)
       Q.Gen.(pair malformed_gen (int_bound 1000)))
    (fun (bytes, cut) ->
      List.for_all
        (fun form ->
          Image.header (form ()) = None
          && Image.decode (form ()) = None
          && image_prim "isImage" [ Value.Vblob (form ()) ] = Value.vfalse
          && List.for_all
               (fun name -> raises_bad_image name [ Value.Vblob (form ()) ])
               [ "imgWidth"; "imgHeight"; "imgDepth"; "imgBytes" ]
          && List.for_all
               (fun level ->
                 raises_bad_image "imgDistill"
                   [ Value.Vblob (form ()); Value.Vint level ])
               [ 0; 1 ])
        (payload_forms bytes cut))

let zipf_in_range =
  Q.Test.make ~name:"rng: zipf stays in 1..n" ~count:200
    Q.(pair (int_range 1 50) small_int)
    (fun (n, seed) ->
      let rng = Asp.Rng.create ~seed:(seed + 1) in
      let rank = Asp.Rng.zipf rng ~n ~alpha:1.0 in
      rank >= 1 && rank <= n)

let file_sizes_bounded =
  Q.Test.make ~name:"http: file sizes within catalog bounds" ~count:300
    Q.small_int
    (fun file_id ->
      let size = Asp.Http_app.file_size file_id in
      size >= 256 && size <= 262_144)

(* ---------- generated PLAN-P expressions ---------- *)

(* Closed, well-typed expressions of type int, with let-bound variables,
   conditionals, arithmetic (division always wrapped in a DivByZero
   handler), strings reduced back to ints via strlen, and primitive calls.
   Depth-bounded so generation terminates. *)

let loc = Planp.Loc.dummy
let mk d = Ast.mk loc d
let int_lit n = mk (Ast.Int n)

let rec gen_int env depth st =
  let open Q.Gen in
  let leaf =
    if env = [] then map (fun n -> int_lit n) (int_range (-50) 50)
    else
      frequency
        [ (2, map (fun n -> int_lit n) (int_range (-50) 50));
          (1, map (fun name -> mk (Ast.Var name)) (oneofl env)) ]
  in
  if depth <= 0 then leaf st
  else
    frequency
      [
        (2, leaf);
        ( 3,
          map3
            (fun op a b -> mk (Ast.Binop (op, a, b)))
            (oneofl [ Ast.Add; Ast.Sub; Ast.Mul ])
            (gen_int env (depth - 1))
            (gen_int env (depth - 1)) );
        ( 1,
          (* division guarded by a handler *)
          map2
            (fun a b ->
              mk
                (Ast.Try
                   ( mk (Ast.Binop (Ast.Div, a, b)),
                     [ ("DivByZero", int_lit 999) ] )))
            (gen_int env (depth - 1))
            (gen_int env (depth - 1)) );
        ( 2,
          map3
            (fun c a b -> mk (Ast.If (c, a, b)))
            (gen_bool env (depth - 1))
            (gen_int env (depth - 1))
            (gen_int env (depth - 1)) );
        ( 2,
          (* let val v<k> = e1 in ... v<k> ... *)
          let name = Printf.sprintf "v%d" (List.length env) in
          map2
            (fun bound body ->
              mk
                (Ast.Let
                   ( [ { Ast.bind_name = name; bind_type = Planp.Ptype.Tint;
                         bind_expr = bound } ],
                     body )))
            (gen_int env (depth - 1))
            (gen_int (name :: env) (depth - 1)) );
        ( 1,
          map
            (fun a -> mk (Ast.Call ("abs", [ a ])))
            (gen_int env (depth - 1)) );
        ( 1,
          map2
            (fun a b -> mk (Ast.Call ("min", [ a; b ])))
            (gen_int env (depth - 1))
            (gen_int env (depth - 1)) );
        ( 1,
          map
            (fun a -> mk (Ast.Call ("strlen", [ mk (Ast.Call ("itos", [ a ])) ])))
            (gen_int env (depth - 1)) );
      ]
      st

and gen_bool env depth st =
  let open Q.Gen in
  if depth <= 0 then map (fun b -> mk (Ast.Bool b)) bool st
  else
    frequency
      [
        (1, map (fun b -> mk (Ast.Bool b)) bool);
        ( 3,
          map3
            (fun op a b -> mk (Ast.Binop (op, a, b)))
            (oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Gt; Ast.Le; Ast.Ge ])
            (gen_int env (depth - 1))
            (gen_int env (depth - 1)) );
        ( 2,
          map3
            (fun op a b -> mk (Ast.Binop (op, a, b)))
            (oneofl [ Ast.And; Ast.Or ])
            (gen_bool env (depth - 1))
            (gen_bool env (depth - 1)) );
        (1, map (fun a -> mk (Ast.Unop (Ast.Not, a))) (gen_bool env (depth - 1)));
      ]
      st

let expr_arbitrary =
  Q.make
    ~print:(fun e -> Planp.Pretty.expr_to_string e)
    (Q.Gen.sized_size (Q.Gen.int_range 0 5) (fun depth -> gen_int [] depth))

let eval_three expr =
  let world, _, _ = World.dummy () in
  let reference =
    try Ok (Interp.eval_const ~world ~globals:[] expr)
    with Value.Planp_raise e -> Error e
  in
  let jit =
    try Ok (Specialize.run (Specialize.compile_expr ~globals:[] ~params:[] expr) world [])
    with Value.Planp_raise e -> Error e
  in
  let vm =
    try Ok (Vm.call (Bytecomp.compile_expr ~globals:[] ~params:[] expr) ~fn:0 world [||])
    with Value.Planp_raise e -> Error e
  in
  (reference, jit, vm)

let eval_folded expr =
  let world, _, _ = World.dummy () in
  let folded = Planp_jit.Fold.expr ~globals:[] expr in
  ( (try Ok (Interp.eval_const ~world ~globals:[] folded)
     with Value.Planp_raise e -> Error e),
    folded )

let result_equal a b =
  match (a, b) with
  | Ok va, Ok vb -> Value.equal va vb
  | Error ea, Error eb -> String.equal ea eb
  | Ok _, Error _ | Error _, Ok _ -> false

let backends_differential =
  Q.Test.make
    ~name:"backends: interpreter, JIT and VM agree on generated expressions"
    ~count:500 expr_arbitrary
    (fun expr ->
      let reference, jit, vm = eval_three expr in
      result_equal reference jit && result_equal reference vm)

let fold_differential =
  Q.Test.make
    ~name:"fold: constant folding preserves evaluation and never grows the AST"
    ~count:500 expr_arbitrary
    (fun expr ->
      let reference, _, _ = eval_three expr in
      let folded_result, folded = eval_folded expr in
      result_equal reference folded_result
      && Planp_jit.Fold.count_nodes folded <= Planp_jit.Fold.count_nodes expr)

let pretty_parse_roundtrip =
  Q.Test.make ~name:"pretty: print/parse/print is a fixed point" ~count:300
    expr_arbitrary
    (fun expr ->
      let printed = Planp.Pretty.expr_to_string expr in
      match Planp.Parser.parse_expr printed with
      | reparsed -> String.equal printed (Planp.Pretty.expr_to_string reparsed)
      | exception _ -> false)

let reparsed_evaluates_same =
  Q.Test.make ~name:"pretty: reparsed expression evaluates identically"
    ~count:300 expr_arbitrary
    (fun expr ->
      let printed = Planp.Pretty.expr_to_string expr in
      let reparsed = Planp.Parser.parse_expr printed in
      let world, _, _ = World.dummy () in
      let run e =
        try Ok (Interp.eval_const ~world ~globals:[] e)
        with Value.Planp_raise exn_name -> Error exn_name
      in
      result_equal (run expr) (run reparsed))

(* ---------- packet codec ---------- *)

let scalar_component =
  Q.Gen.oneof
    [
      Q.Gen.map (fun n -> Value.Vint n) (Q.Gen.int_range (-1000000) 1000000);
      Q.Gen.map (fun b -> Value.Vbool b) Q.Gen.bool;
      Q.Gen.map
        (fun c -> Value.Vchar (Char.chr c))
        (Q.Gen.int_range 0 255);
      Q.Gen.map (fun h -> Value.Vhost h) (Q.Gen.int_bound 0xFFFFFF);
      Q.Gen.map
        (fun s -> Value.Vstring s)
        (Q.Gen.string_size ~gen:Q.Gen.printable (Q.Gen.int_range 0 20));
    ]

let type_of_component = function
  | Value.Vint _ -> Planp.Ptype.Tint
  | Value.Vbool _ -> Planp.Ptype.Tbool
  | Value.Vchar _ -> Planp.Ptype.Tchar
  | Value.Vhost _ -> Planp.Ptype.Thost
  | Value.Vstring _ -> Planp.Ptype.Tstring
  | _ -> assert false

let codec_roundtrip =
  Q.Test.make ~name:"codec: scalar payload encode/decode roundtrip" ~count:300
    (Q.make Q.Gen.(list_size (int_range 1 6) scalar_component))
    (fun components ->
      let ip = Value.Vip { Value.vsrc = 1; vdst = 2; vttl = 33 } in
      let udp = Value.Vudp { Netsim.Packet.udp_src = 7; udp_dst = 9 } in
      let value = Value.Vtuple (Array.of_list (ip :: udp :: components)) in
      let ty =
        Planp.Ptype.Ttuple
          (Planp.Ptype.Tip :: Planp.Ptype.Tudp
          :: List.map type_of_component components)
      in
      let packet = Planp_runtime.Pkt_codec.encode ~chan:"network" value in
      match Planp_runtime.Pkt_codec.decode ty packet with
      | Some decoded -> Value.equal value decoded
      | None -> false)

(* Feed random bytes to the front end: it must either parse or raise the
   documented Error exceptions — never crash, never loop. *)
let frontend_fuzz =
  Q.Test.make ~name:"frontend: random input never crashes lexer/parser"
    ~count:1000
    Q.(string_gen_of_size (Q.Gen.int_range 0 80) (Q.Gen.char_range '\000' '\255'))
    (fun junk ->
      match Planp.Parser.parse junk with
      | _ -> true
      | exception Planp.Lexer.Error _ -> true
      | exception Planp.Parser.Error _ -> true)

(* Near-miss fuzzing: mutate a valid program by one byte. *)
let frontend_mutation_fuzz =
  let base =
    Asp.Http_asp.gateway_program ~vip:"10.3.0.100"
      ~servers:("10.3.0.1", "10.3.0.2") ()
  in
  Q.Test.make ~name:"frontend: one-byte mutations never crash the pipeline"
    ~count:500
    Q.(pair (int_bound (String.length base - 1)) (int_range 1 255))
    (fun (pos, delta) ->
      let mutated = Bytes.of_string base in
      Bytes.set mutated pos
        (Char.chr ((Char.code (Bytes.get mutated pos) + delta) mod 256));
      let source = Bytes.to_string mutated in
      match Extnet.check_source source with
      | Ok checked ->
          (* If it still type checks, the verifier must not crash either. *)
          ignore
            (Planp_analysis.Verifier.verify checked.Planp.Typecheck.program);
          true
      | Error _ -> true)

let flowstat_rate_nonnegative =
  Q.Test.make ~name:"flowstat: rate is nonnegative and bounded by input"
    ~count:200
    Q.(list_of_size (Q.Gen.int_range 0 50) (pair (float_bound_inclusive 10.0) (int_bound 5000)))
    (fun samples ->
      let stat = Netsim.Flowstat.create ~window:1.0 () in
      let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) samples in
      List.iter (fun (t, b) -> Netsim.Flowstat.record stat ~now:t b) sorted;
      let rate = Netsim.Flowstat.rate_bps stat ~now:10.0 in
      let total_bits = 8 * List.fold_left (fun acc (_, b) -> acc + b) 0 sorted in
      rate >= 0.0 && rate <= float_of_int total_bits /. 1.0 +. 1e-6)

let () =
  let suite =
    List.map QCheck_alcotest.to_alcotest
      [
        addr_roundtrip;
        heap_sorts;
        sched_matches_reference_model;
        bucket_int_float_parity;
        payload_u32_roundtrip;
        audio_frame_roundtrip;
        audio_degrade_size;
        audio_wire_parity;
        audio_malformed_rejected;
        image_header_parity;
        image_malformed_rejected;
        zipf_in_range;
        file_sizes_bounded;
        backends_differential;
        fold_differential;
        pretty_parse_roundtrip;
        reparsed_evaluates_same;
        codec_roundtrip;
        frontend_fuzz;
        frontend_mutation_fuzz;
        flowstat_rate_nonnegative;
      ]
  in
  Alcotest.run "properties" [ ("qcheck", suite) ]
