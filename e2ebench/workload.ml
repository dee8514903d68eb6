(* The benchmark's workloads: how each turns a seed into the config the
   program receives, which ASPs it installs, which cells it runs, and the
   deterministic outputs and paper shapes each cell is checked on. *)

module Audio = Asp.Audio_experiment
module Http = Asp.Http_experiment

(* Seed 42 reproduces the paper's inputs: the Fig. 6 load schedule, HTTP
   trace seed 42 and evenly spaced congestion bursts. *)
let default_seed = 42

(* What a workload run hands back: one canonical output line per cell, and
   the cells whose outputs break one of the paper's shapes. *)
type outcome = { cells : (string * string) list; shape_failures : string list }

(* How the benchmark observes a run: [backend] wraps the backend passed in
   the experiment config, [cell] brackets one experiment cell. *)
type hooks = {
  backend : Planp_runtime.Backend.t -> Planp_runtime.Backend.t;
  cell : 'a. string -> (unit -> 'a) -> 'a;
}

type asp = {
  asp_name : string;
  source : string;
  asp_backend : Planp_runtime.Backend.t;
}

type t = {
  name : string;
  sim_seconds : float;  (** simulated seconds one run advances *)
  asps : asp list;  (** every ASP the workload installs *)
  prepare : seed:int -> hooks -> outcome;
      (** [prepare ~seed] generates the inputs for [seed]; applying the
          result to hooks runs the workload *)
  twin : (seed:int -> hooks -> outcome) option;
      (** the ASP-free run used to isolate the ASP path, when the workload
          has no such cells of its own *)
  asp_path : (string list * string list) option;
      (** (cells running the ASP, ASP-free cells carrying the same
          traffic): their time difference is the ASP path *)
}

let fmt_float f = Printf.sprintf "%.17g" f

(* ------------------------------------------------------------------ *)
(* audio_fig6                                                          *)
(* ------------------------------------------------------------------ *)

(* Other seeds move each load step by up to 4 s and scale its level by up
   to 1.5%, small enough that heavy, medium and light load still select
   the three wire qualities. *)
let fig6_schedule ~seed =
  let paper = (Audio.fig6_config ()).Audio.schedule in
  if seed = default_seed then paper
  else
    let rng = Asp.Rng.create ~seed in
    List.map
      (fun (at, load) ->
        if at = 0.0 then (at, load)
        else
          let shift = float_of_int (Asp.Rng.int rng 9 - 4) in
          let scale = 1.0 +. (0.03 *. (Asp.Rng.float rng -. 0.5)) in
          (at +. shift, load *. scale))
      paper

let audio_output (r : Audio.result) =
  let s16, m16, m8 = r.Audio.wire_quality_counts in
  let series =
    String.concat ";"
      (List.map (fun (t, v) -> fmt_float t ^ "," ^ fmt_float v) r.Audio.series)
  in
  Printf.sprintf
    "frames_sent=%d frames_received=%d drops=%d silent_periods=%d \
     silent_frames=%d wire=%d,%d,%d series=%s"
    r.Audio.frames_sent r.Audio.frames_received r.Audio.segment_drops
    r.Audio.silent_periods r.Audio.silent_frames s16 m16 m8
    (Digest.to_hex (Digest.string series))

let audio_fig6 =
  let run ~adapt ~cell ~seed =
    let schedule = fig6_schedule ~seed in
    fun hooks ->
      let config =
        {
          (Audio.fig6_config ~adapt
             ~backend:(hooks.backend Planp_jit.Backends.jit)
             ())
          with
          Audio.schedule;
        }
      in
      let r = hooks.cell cell (fun () -> Audio.run config) in
      let s16, m16, m8 = r.Audio.wire_quality_counts in
      {
        cells = [ (cell, audio_output r) ];
        shape_failures =
          (if adapt && (s16 = 0 || m16 = 0 || m8 = 0) then [ cell ] else []);
      }
  in
  {
    name = "audio_fig6";
    sim_seconds = (Audio.fig6_config ()).Audio.duration +. 0.5;
    asps =
      [
        {
          asp_name = "audio-router";
          source = Asp.Audio_asp.router_program ~iface:1 ();
          asp_backend = Planp_jit.Backends.jit;
        };
        {
          asp_name = "audio-client";
          source = Asp.Audio_asp.client_program ();
          asp_backend = Planp_jit.Backends.jit;
        };
      ];
    prepare = run ~adapt:true ~cell:"fig6";
    twin = Some (run ~adapt:false ~cell:"fig6-twin");
    asp_path = Some ([ "fig6" ], [ "fig6-twin" ]);
  }

(* ------------------------------------------------------------------ *)
(* http_fig8                                                           *)
(* ------------------------------------------------------------------ *)

let fig8_workers = [ 8; 16; 24; 32; 48; 64 ]
let fig8_curves = [ "a"; "b"; "c"; "d" ]

let fig8_config ~seed =
  {
    Http.default_config with
    Http.duration = 25.0;
    warmup = 5.0;
    client_count = 16;
    seed;
  }

let http_output (p : Http.point) =
  let l0, l1 = p.Http.server_loads in
  Printf.sprintf "replies_per_s=%s mean_ms=%s p95_ms=%s gateway_requests=%d loads=%d,%d"
    (fmt_float p.Http.replies_per_s)
    (fmt_float p.Http.mean_response_ms)
    (fmt_float p.Http.p95_response_ms)
    p.Http.gateway_requests l0 l1

(* The paper's Fig. 8 shapes: the ASP gateway saturates at >= 1.5x the
   single server, and matches the built-in gateway point for point. *)
let fig8_shape points =
  let curve c = List.filter (fun (c', _, _) -> c' = c) points in
  let peak c =
    List.fold_left (fun acc (_, _, p) -> Float.max acc p.Http.replies_per_s) 0.0 (curve c)
  in
  let id c w = Printf.sprintf "%s/%d" c w in
  let ratio_fails =
    if peak "b" >= 1.5 *. peak "a" then []
    else List.map (fun (c, w, _) -> id c w) (curve "a" @ curve "b")
  in
  let same (p : Http.point) (q : Http.point) =
    p.Http.replies_per_s = q.Http.replies_per_s
    && p.Http.mean_response_ms = q.Http.mean_response_ms
    && p.Http.p95_response_ms = q.Http.p95_response_ms
    && p.Http.server_loads = q.Http.server_loads
  in
  let parity_fails =
    List.concat_map
      (fun (_, w, b) ->
        match List.find_opt (fun (_, w', _) -> w' = w) (curve "c") with
        | Some (_, _, c) when same b c -> []
        | _ -> [ id "b" w; id "c" w ])
      (curve "b")
  in
  List.sort_uniq compare (ratio_fails @ parity_fails)

let http_fig8 =
  let prepare ~seed =
    let config = fig8_config ~seed in
    fun hooks ->
      let jit = hooks.backend Planp_jit.Backends.jit in
      let setup = function
        | "a" -> Http.Single
        | "b" -> Http.Asp_gateway jit
        | "c" -> Http.Native_gateway
        | _ -> Http.Disjoint
      in
      let points =
        List.concat_map
          (fun c ->
            List.map
              (fun w ->
                ( c,
                  w,
                  hooks.cell (Printf.sprintf "%s/%d" c w) (fun () ->
                      Http.run_point config (setup c) ~workers:w) ))
              fig8_workers)
          fig8_curves
      in
      let last = List.nth fig8_workers (List.length fig8_workers - 1) in
      let ablation_id = Printf.sprintf "ablation/%d" last in
      let ablation =
        hooks.cell ablation_id (fun () ->
            Http.run_point config (Http.Asp_gateway Planp_jit.Backends.interp)
              ~workers:last)
      in
      {
        cells =
          List.map (fun (c, w, p) -> (Printf.sprintf "%s/%d" c w, http_output p)) points
          @ [ (ablation_id, http_output ablation) ];
        shape_failures = fig8_shape points;
      }
  in
  let gateway =
    Asp.Http_asp.gateway_program ~vip:"10.3.0.100"
      ~servers:("10.3.0.1", "10.3.0.2") ()
  in
  let config = fig8_config ~seed:default_seed in
  {
    name = "http_fig8";
    sim_seconds =
      config.Http.duration
      *. float_of_int ((List.length fig8_curves * List.length fig8_workers) + 1);
    asps =
      [
        { asp_name = "http-gateway"; source = gateway; asp_backend = Planp_jit.Backends.jit };
        {
          asp_name = "http-gateway-interp";
          source = gateway;
          asp_backend = Planp_jit.Backends.interp;
        };
      ];
    prepare;
    twin = None;
    asp_path =
      Some
        ( List.map (Printf.sprintf "b/%d") fig8_workers,
          List.map (Printf.sprintf "c/%d") fig8_workers );
  }

(* ------------------------------------------------------------------ *)
(* audio_adapt_fleet                                                   *)
(* ------------------------------------------------------------------ *)

let fleet_duration = 200.0

(* Five [Congest] bursts on the client segment, bandwidth x0.1 for 15 s.
   The default seed starts them every 40 s from t = 20 s; other seeds
   jitter each start by up to 4 s. *)
let fleet_bursts ~seed =
  let rng = Asp.Rng.create ~seed in
  let events =
    List.init 5 (fun k ->
        let jitter =
          if seed = default_seed then 0.0 else float_of_int (Asp.Rng.int rng 9 - 4)
        in
        let at = 20.0 +. (40.0 *. float_of_int k) +. jitter in
        {
          Netsim.Faults.ft_at = at;
          ft_until = Some (at +. 15.0);
          ft_kind = Netsim.Faults.Congest { bandwidth_factor = 0.1; queue_factor = 1.0 };
          ft_target = Some (Netsim.Faults.Tsegment "client-segment");
        })
  in
  Netsim.Faults.scenario_of_events ~seed events

(* The final (variant, epoch) each router acknowledged, from the plane's
   per-target rollout records ("stage <program> <variant> @ <addr>" /
   "ACK epoch <n> ..."). *)
let final_variants (stats : Adapt.Plane.stats) =
  List.fold_left
    (fun acc (ev : Adapt.Plane.event) ->
      match
        ( String.split_on_char ' ' ev.Adapt.Plane.ev_what,
          String.split_on_char ' ' ev.Adapt.Plane.ev_note )
      with
      | [ "stage"; _; variant; "@"; addr ], "ACK" :: "epoch" :: epoch :: _ ->
          (addr, variant ^ "@" ^ epoch) :: List.remove_assoc addr acc
      | _ -> acc)
    [] stats.Adapt.Plane.st_events
  |> List.sort compare

let audio_adapt_fleet =
  let prepare ~seed =
    let faults = fleet_bursts ~seed in
    fun hooks ->
      let config =
        {
          (Audio.quick_config ~routers:3 ~deploy:Asp.Deploy_mode.In_band
             ~backend:(hooks.backend Planp_jit.Backends.jit)
             ~adaptation:(Audio.adaptive_policy ()) ~faults ())
          with
          Audio.duration = fleet_duration;
          schedule = [ (0.0, 0.0) ];
        }
      in
      let r = hooks.cell "fleet" (fun () -> Audio.run config) in
      let rollouts =
        Option.value ~default:0 (Obs.Registry.read_counter "adapt.fleet.rollouts")
      in
      let stats =
        match r.Audio.adaptation with
        | Some stats -> stats
        | None -> failwith "audio_adapt_fleet: no adaptation plane"
      in
      let routers =
        String.concat ","
          (List.map (fun (a, v) -> a ^ "=" ^ v) (final_variants stats))
      in
      let output =
        Printf.sprintf "%s swaps=%d failed_swaps=%d rollbacks=%d rollouts=%d routers=%s"
          (audio_output r) stats.Adapt.Plane.st_swaps stats.Adapt.Plane.st_failed_swaps
          stats.Adapt.Plane.st_rollbacks rollouts routers
      in
      {
        cells = [ ("fleet", output) ];
        shape_failures =
          (if stats.Adapt.Plane.st_swaps >= 1 && stats.Adapt.Plane.st_failed_swaps = 0
           then []
           else [ "fleet" ]);
      }
  in
  let router asp_name policy =
    {
      asp_name;
      source = Asp.Audio_asp.router_program ~policy ~iface:1 ();
      asp_backend = Planp_jit.Backends.jit;
    }
  in
  {
    name = "audio_adapt_fleet";
    sim_seconds = fleet_duration +. 0.5;
    asps =
      [
        router "audio-router" Asp.Audio_asp.default_policy;
        router "audio-router-conservative" Asp.Audio_asp.conservative_policy;
        {
          asp_name = "audio-client";
          source = Asp.Audio_asp.client_program ();
          asp_backend = Planp_jit.Backends.jit;
        };
      ];
    prepare;
    twin = None;
    asp_path = None;
  }

let all = [ audio_fig6; http_fig8; audio_adapt_fleet ]
let find name = List.find_opt (fun w -> w.name = name) all
