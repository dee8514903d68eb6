(* The traced run's ledger: spans recorded from the benchmark's own files
   around calls into each layer, plus per-channel histograms of backend
   executions (one aggregate per channel, so 10^6 calls cost no spans).

   A layer's self time is its spans' durations minus the part covered by
   their children; the root span's self time is the unattributed
   remainder. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns *. 1e-9

type span = {
  layer : string;
  name : string;
  dur_ns : int;
  mutable child_ns : int;
}

(* Quarter-octave log-scale buckets over nanoseconds: bucket [4e + s]
   holds durations whose bit length is [e] and whose next two bits are
   [s]. *)
let buckets = 4 * 63

let bucket_of ns =
  if ns < 4 then ns
  else begin
    let e = ref 0 and v = ref ns in
    while !v > 0 do
      incr e;
      v := !v lsr 1
    done;
    (4 * !e) + ((ns lsr (!e - 3)) land 3)
  end

(* Inclusive upper bound of a bucket, in nanoseconds. *)
let bucket_upper b =
  if b < 4 then float_of_int b
  else
    let e = b / 4 and s = b mod 4 in
    Float.ldexp (float_of_int (4 + s + 1)) (e - 3) -. 1.0

type hist = { counts : int array; mutable calls : int; mutable total_ns : int }

let new_hist () = { counts = Array.make buckets 0; calls = 0; total_ns = 0 }

let record h ns =
  h.calls <- h.calls + 1;
  h.total_ns <- h.total_ns + ns;
  let b = bucket_of ns in
  h.counts.(b) <- h.counts.(b) + 1

let merge_into into h =
  into.calls <- into.calls + h.calls;
  into.total_ns <- into.total_ns + h.total_ns;
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) h.counts

(* Upper bound of the bucket holding the q-quantile, in nanoseconds. *)
let quantile_ns h q =
  if h.calls = 0 then 0.0
  else begin
    let rank = Float.to_int (Float.ceil (q *. float_of_int h.calls)) in
    let rank = max rank 1 in
    let rec walk b seen =
      let seen = seen + h.counts.(b) in
      if seen >= rank || b = buckets - 1 then bucket_upper b else walk (b + 1) seen
    in
    walk 0 0
  end

type t = {
  mutable spans : span list;  (* closed spans, newest first *)
  mutable stack : span list;  (* open spans' child accumulators *)
  channels : (string, hist) Hashtbl.t;
  mutable exec_ns : int;  (* every wrapped execution so far *)
  mutable asps : (string * Planp.Ast.program) list;
}

let create () =
  { spans = []; stack = []; channels = Hashtbl.create 8; exec_ns = 0; asps = [] }

let close t span =
  (match t.stack with
  | parent :: _ -> parent.child_ns <- parent.child_ns + span.dur_ns
  | [] -> ());
  t.spans <- span :: t.spans

let span t ~layer name f =
  let acc = { layer; name; dur_ns = 0; child_ns = 0 } in
  t.stack <- acc :: t.stack;
  let start = now_ns () in
  let finish () =
    let dur_ns = now_ns () - start in
    t.stack <- List.tl t.stack;
    close t { acc with dur_ns }
  in
  match f () with
  | result ->
      finish ();
      result
  | exception e ->
      finish ();
      raise e

(* An aggregate child of the innermost open span, e.g. every backend
   execution that happened inside one experiment cell. *)
let aggregate t ~layer name ns =
  if ns > 0 then close t { layer; name; dur_ns = ns; child_ns = 0 }

(* Names the ASP whose checked program the setup phase saw, so histograms
   are keyed by program and channel. *)
let register_asp t name program =
  if not (List.mem_assoc name t.asps) then t.asps <- t.asps @ [ (name, program) ]

let asp_name t program =
  match List.find_opt (fun (_, p) -> p = program) t.asps with
  | Some (name, _) -> name
  | None -> "unnamed"

let channel t key =
  match Hashtbl.find_opt t.channels key with
  | Some h -> h
  | None ->
      let h = new_hist () in
      Hashtbl.replace t.channels key h;
      h

(* The Backend seam: time compilation as a span and every channel
   execution into its channel's histogram. Name, profile and replay
   credit pass through, so the runtime, the flow cache and the HTTP
   gateway's per-backend CPU cost see the same backend. *)
let wrap_backend t (backend : Planp_runtime.Backend.t) =
  let compile checked ~globals =
    let compiled =
      span t ~layer:"planp_jit" "compile" (fun () ->
          backend.Planp_runtime.Backend.compile checked ~globals)
    in
    let asp = asp_name t checked.Planp.Typecheck.program in
    List.map
      (fun (chan, exec) ->
        let h = channel t (asp ^ "/" ^ chan.Planp.Ast.chan_name) in
        let timed world ~ps ~ss ~pkt =
          let start = now_ns () in
          match exec world ~ps ~ss ~pkt with
          | result ->
              let ns = now_ns () - start in
              record h ns;
              t.exec_ns <- t.exec_ns + ns;
              result
          | exception e ->
              let ns = now_ns () - start in
              record h ns;
              t.exec_ns <- t.exec_ns + ns;
              raise e
        in
        (chan, timed))
      compiled
  in
  { backend with Planp_runtime.Backend.compile }

let spans t = List.rev t.spans

let layer_self t layer =
  List.fold_left
    (fun acc s ->
      if s.layer = layer then acc +. seconds (s.dur_ns - s.child_ns) else acc)
    0.0 (spans t)

let layer_total t layer =
  List.fold_left
    (fun acc s -> if s.layer = layer then acc +. seconds s.dur_ns else acc)
    0.0 (spans t)

let channels t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.channels [] |> List.sort compare
