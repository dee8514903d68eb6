module Ptype = Planp.Ptype
module Sig = Planp.Prim_sig

let bad_image () = raise (Value.Planp_raise "BadImage")

let header_of_blob value =
  match Image.header (Value.as_blob value) with
  | Some header -> header
  | None -> bad_image ()

let image_of_blob value =
  match Image.decode (Value.as_blob value) with
  | Some image -> image
  | None -> bad_image ()

let pure prim_name expected result impl =
  {
    Prim.prim_name;
    type_fn = Sig.fixed expected result;
    impl = (fun _world args -> impl args);
    pure = true;
  }

let arg1 = function
  | [| a |] -> a
  | _ -> raise (Value.Runtime_error "expected 1 argument")

let arg2 = function
  | [| a; b |] -> (a, b)
  | _ -> raise (Value.Runtime_error "expected 2 arguments")

let install () =
  List.iter Prim.register
    [
      pure "isImage" [ Ptype.Tblob ] Ptype.Tbool (fun args ->
          Value.vbool (Option.is_some (Image.header (Value.as_blob (arg1 args)))));
      pure "imgWidth" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          let _, width, _ = header_of_blob (arg1 args) in
          Value.Vint width);
      pure "imgHeight" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          let _, _, height = header_of_blob (arg1 args) in
          Value.Vint height);
      pure "imgDepth" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          let depth, _, _ = header_of_blob (arg1 args) in
          Value.Vint depth);
      pure "imgBytes" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          (* A valid image is exactly its encoded size long. *)
          ignore (header_of_blob (arg1 args));
          Value.Vint (Netsim.Payload.length (Value.as_blob (arg1 args))));
      pure "imgDistill" [ Ptype.Tblob; Ptype.Tint ] Ptype.Tblob (fun args ->
          let blob, levels = arg2 args in
          let levels = Value.as_int levels in
          if levels < 0 then bad_image ()
          else
            Value.Vblob (Image.encode (Image.distill_n (image_of_blob blob) levels)));
    ]
