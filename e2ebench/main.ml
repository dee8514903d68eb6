(* The end-to-end benchmark (see README.md).

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--reference FILE] [--out FILE]
     main.exe --record-reference FILE

   Untraced runs report the end-to-end metrics; traced runs report the
   per-layer metrics and the ledger. Every run checks each cell's outputs:
   against the recorded reference for the default seed, against the
   paper's shapes, across repeats and across traced and untraced runs. The
   last line of stdout is the result object. *)

let registry = Obs.Registry.default
let elapsed_since start = Ledger.seconds (Ledger.now_ns () - start)

let median values =
  match List.sort compare values with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      if n mod 2 = 1 then List.nth sorted (n / 2)
      else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Setup: inputs, then every ASP through front end, verifier, compiler *)
(* ------------------------------------------------------------------ *)

let frontend source =
  Planp_runtime.Prims.install ();
  match
    Planp.Typecheck.check ~prims:Planp_runtime.Prim.type_lookup
      (Planp.Parser.parse source)
  with
  | Ok checked -> checked
  | Error e -> failwith (Format.asprintf "%a" Planp.Typecheck.pp_error e)

let globals_of checked =
  let world, _, _ = Planp_runtime.World.dummy () in
  List.fold_left
    (fun globals decl ->
      match decl with
      | Planp.Ast.Dval ({ Planp.Ast.bind_name; bind_expr; _ }, _) ->
          globals
          @ [ (bind_name, Planp_runtime.Interp.eval_const ~world ~globals bind_expr) ]
      | _ -> globals)
    [] checked.Planp.Typecheck.program

type spanner = { span : 'a. layer:string -> string -> (unit -> 'a) -> 'a }

let untimed = { span = (fun ~layer:_ _ f -> f ()) }

let setup (w : Workload.t) ~seed sp ~on_checked =
  let run = sp.span ~layer:"inputs" "inputs" (fun () -> w.Workload.prepare ~seed) in
  List.iter
    (fun (a : Workload.asp) ->
      let checked =
        sp.span ~layer:"planp" ("frontend:" ^ a.Workload.asp_name) (fun () ->
            frontend a.Workload.source)
      in
      on_checked a.Workload.asp_name checked;
      ignore
        (sp.span ~layer:"planp_analysis" ("verify:" ^ a.Workload.asp_name) (fun () ->
             Planp_analysis.Verifier.verify ~classify:Planp_runtime.Flowcache.classify
               checked.Planp.Typecheck.program));
      let globals = globals_of checked in
      ignore
        (sp.span ~layer:"planp_jit" ("compile:" ^ a.Workload.asp_name) (fun () ->
             a.Workload.asp_backend.Planp_runtime.Backend.compile checked ~globals)))
    w.Workload.asps;
  run

(* ------------------------------------------------------------------ *)
(* One run of a workload's cells                                       *)
(* ------------------------------------------------------------------ *)

type rep = {
  run_s : float;  (* cells plus one metrics export *)
  cell_s : (string * float) list;
  outcome : Workload.outcome;
  export_s : float;
  entries : int;
  gc : Gc.stat * Gc.stat;  (* before, after *)
  heap_depth_max : float;
}

(* Runs [run] from a fresh registry. [ledger] switches tracing on: the
   backend is wrapped, cells become spans with their executions as an
   aggregate child, and the export is a span. *)
let run_rep ?ledger (run : Workload.hooks -> Workload.outcome) =
  Obs.Registry.reset registry;
  Gc.compact ();
  let cell_s = ref [] and depth = ref 0.0 in
  let timed id f =
    let start = Ledger.now_ns () in
    let result = f () in
    cell_s := (id, elapsed_since start) :: !cell_s;
    (match Obs.Registry.read_gauge "netsim.engine.heap_depth_max" with
    | Some d -> depth := Float.max !depth d
    | None -> ());
    result
  in
  let hooks, export =
    match ledger with
    | None -> ({ Workload.backend = Fun.id; cell = timed }, fun f -> f ())
    | Some l ->
        let cell id f =
          timed id (fun () ->
              Ledger.span l ~layer:"experiment" id (fun () ->
                  let before = l.Ledger.exec_ns in
                  let result = f () in
                  Ledger.aggregate l ~layer:"planp_jit" "exec" (l.Ledger.exec_ns - before);
                  result))
        in
        ( { Workload.backend = Ledger.wrap_backend l; cell },
          fun f -> Ledger.span l ~layer:"obs" "export" f )
  in
  let gc_before = Gc.quick_stat () in
  let start = Ledger.now_ns () in
  let outcome = run hooks in
  let export_start = Ledger.now_ns () in
  let document = export (fun () -> Obs.Registry.to_json_string registry) in
  let export_s = elapsed_since export_start in
  let run_s = elapsed_since start in
  let gc_after = Gc.quick_stat () in
  ignore (Sys.opaque_identity document);
  {
    run_s;
    cell_s = List.rev !cell_s;
    outcome;
    export_s;
    entries = List.length (Obs.Registry.snapshot registry);
    gc = (gc_before, gc_after);
    heap_depth_max = !depth;
  }

(* ------------------------------------------------------------------ *)
(* Output verification                                                 *)
(* ------------------------------------------------------------------ *)

let read_reference path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec loop acc =
        match input_line ic with
        | line -> (
            match String.split_on_char ' ' line with
            | workload :: cell :: rest -> loop (((workload, cell), String.concat " " rest) :: acc)
            | _ -> loop acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      loop []

type checker = {
  workload : string;
  reference : ((string * string) * string) list option;  (* default seed only *)
  mutable first : (string * string) list;  (* first output seen per cell *)
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;
}

(* Checks every cell of one outcome; [against] is the untraced outcome a
   traced one must reproduce. *)
let check ?against c (o : Workload.outcome) =
  List.iter
    (fun (cell, output) ->
      let fail why = c.reasons <- Printf.sprintf "%s: %s" cell why :: c.reasons in
      let before = List.length c.reasons in
      (match c.reference with
      | Some reference -> (
          match List.assoc_opt (c.workload, cell) reference with
          | Some expected when expected = output -> ()
          | Some expected -> fail ("differs from reference: " ^ expected ^ " vs " ^ output)
          | None -> fail "no reference recorded")
      | None -> ());
      if List.mem cell o.Workload.shape_failures then fail "breaks the paper's shape";
      (match List.assoc_opt cell c.first with
      | Some first when first <> output -> fail "repeat disagrees with the first run"
      | Some _ -> ()
      | None -> c.first <- (cell, output) :: c.first);
      (match against with
      | Some (u : Workload.outcome) when List.assoc_opt cell u.Workload.cells <> Some output ->
          fail "traced output differs from untraced"
      | _ -> ());
      c.attempted <- c.attempted + 1;
      if List.length c.reasons > before then c.failed <- c.failed + 1)
    o.Workload.cells

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Sum of a metric over every label set. *)
let total name =
  List.fold_left
    (fun acc e ->
      if e.Obs.Registry.e_name <> name then acc
      else
        match e.Obs.Registry.e_sample with
        | Obs.Registry.Scounter n -> acc +. float_of_int n
        | Obs.Registry.Sgauge g -> acc +. g
        | Obs.Registry.Shistogram { hs_count; _ } -> acc +. float_of_int hs_count)
    0.0
    (Obs.Registry.snapshot ~include_volatile:true registry)

let counter_labelled name labels =
  float_of_int (Option.value ~default:0 (Obs.Registry.read_counter ~labels name))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0

let end_to_end (w : Workload.t) ~setup_s reps ~peak_heap_words =
  let run_s = median (List.map (fun r -> r.run_s) reps) in
  [
    ("run_s", run_s, "s");
    ("sim_s_per_wall_s", w.Workload.sim_seconds /. run_s, "1/s");
    ("setup_s", median setup_s, "s");
    ("peak_heap_mb", mb_of_words peak_heap_words, "MB");
  ]

let sum_cells rep ids =
  List.fold_left
    (fun acc id -> acc +. Option.value ~default:0.0 (List.assoc_opt id rep.cell_s))
    0.0 ids

(* The ledger's layers; spans of layer "bench" are the root. *)
let layers = [ "inputs"; "planp"; "planp_analysis"; "planp_jit"; "experiment"; "obs" ]

(* One traced iteration's per-layer metrics. [plain] is the untraced run
   of the same inputs, [twin] the ASP-free run when the workload has one,
   [l] the ledger of the traced pass, [traced] its run. The registry still
   holds the traced run's metrics. *)
let per_layer (w : Workload.t) ~plain ~twin ~traced ~root_ns l =
  let events = total "netsim.engine.events" in
  let hits = total "runtime.cache.hits"
  and misses = total "runtime.cache.misses"
  and skipped = total "runtime.cache.skipped" in
  let all = Ledger.new_hist () in
  List.iter (fun (_, h) -> Ledger.merge_into all h) (Ledger.channels l);
  let exec_s = Ledger.seconds all.Ledger.total_ns in
  let asp_path_s =
    match w.Workload.asp_path with
    | None -> 0.0
    | Some (with_asp, without) ->
        let without_rep = Option.value ~default:plain twin in
        sum_cells plain with_asp -. sum_cells without_rep without
  in
  let timed_backend = all.Ledger.calls > 0 in
  let span_total prefix =
    List.fold_left
      (fun acc s ->
        if String.starts_with ~prefix s.Ledger.name then acc +. Ledger.seconds s.Ledger.dur_ns
        else acc)
      0.0 (Ledger.spans l)
  in
  let gc_before, gc_after = plain.gc in
  [
    ("netsim.events", events, "count");
    ("netsim.events_per_s", events /. plain.run_s, "1/s");
    ("netsim.link_tx_packets", total "netsim.link.tx_packets", "count");
    ("netsim.segment_frames", total "netsim.segment.frames", "count");
    ("netsim.drops", total "netsim.link.drops" +. total "netsim.segment.drops", "count");
    ("netsim.heap_depth_max", traced.heap_depth_max, "count");
    ("planp_runtime.handled", total "planp.runtime.handled", "count");
    ("planp_runtime.asp_path_s", asp_path_s, "s");
    ("planp_runtime.dispatch_s", (if timed_backend then asp_path_s -. exec_s else 0.0), "s");
    ("planp_runtime.cache_hits", hits, "count");
    ("planp_runtime.cache_misses", misses, "count");
    ("planp_runtime.cache_skipped", skipped, "count");
    ("planp_runtime.cache_hit_ratio", ratio hits (hits +. misses +. skipped), "ratio");
    ("planp_jit.exec_s", exec_s, "s");
    ( "planp_jit.exec_calls",
      counter_labelled "planp.exec.packets" [ ("backend", "jit") ] -. hits,
      "count" );
    ("planp_jit.exec_us_p50", Ledger.quantile_ns all 0.5 /. 1000.0, "us");
    ("planp_jit.exec_us_p99", Ledger.quantile_ns all 0.99 /. 1000.0, "us");
    ("planp_jit.compile_s", span_total "compile:", "s");
    ("planp_jit.interp_steps", total "planp.interp.eval_steps", "count");
    ("planp.frontend_s", Ledger.layer_total l "planp", "s");
    ("planp_analysis.verify_s", Ledger.layer_total l "planp_analysis", "s");
    ("deploy.capsules_sent", total "deploy.controller.capsules_sent", "count");
    ("deploy.retransmissions", total "deploy.controller.retransmissions", "count");
    ("deploy.installs", total "deploy.daemon.installs", "count");
    ("deploy.verify_wall_s", total "deploy.daemon.verify_wall_s", "s");
    ( "deploy.failures",
      total "deploy.controller.naks" +. total "deploy.controller.timeouts",
      "count" );
    ("adapt.monitor_ticks", total "adapt.monitor.ticks", "count");
    ("adapt.rollouts", total "adapt.fleet.rollouts", "count");
    ("adapt.swaps_acked", total "adapt.swaps.acked", "count");
    ("adapt.swaps_failed", total "adapt.swaps.failed", "count");
    ("adapt.rollbacks", total "adapt.rollbacks", "count");
    ("obs.export_s", traced.export_s, "s");
    ("obs.entries", float_of_int traced.entries, "count");
    ( "gc.minor_words_per_event",
      ratio (gc_after.Gc.minor_words -. gc_before.Gc.minor_words) events,
      "words" );
    ("gc.promoted_words", gc_after.Gc.promoted_words -. gc_before.Gc.promoted_words, "words");
    ( "gc.major_collections",
      float_of_int (gc_after.Gc.major_collections - gc_before.Gc.major_collections),
      "count" );
  ]
  @ List.map (fun layer -> ("ledger." ^ layer ^ ".self_s", Ledger.layer_self l layer, "s")) layers
  @ [
      ("ledger.unattributed_s", Ledger.layer_self l "bench", "s");
      ("ledger.total_s", Ledger.seconds root_ns, "s");
      ("trace.run_s", traced.run_s, "s");
      ("trace.overhead_s", traced.run_s -. plain.run_s, "s");
    ]

let print_ledger l ~root_ns =
  let total = Ledger.seconds root_ns in
  Printf.eprintf "ledger (traced pass, %.3f s):\n" total;
  List.iter
    (fun (label, layer) ->
      let self = Ledger.layer_self l layer in
      Printf.eprintf "  %-16s self %9.4f s  %5.1f%%\n" label self (100.0 *. ratio self total))
    (List.map (fun layer -> (layer, layer)) layers @ [ ("unattributed", "bench") ]);
  List.iter
    (fun (key, h) ->
      Printf.eprintf "  exec %-28s calls %8d  total %8.4f s  p50 %8.3f us  p99 %8.3f us\n"
        key h.Ledger.calls (Ledger.seconds h.Ledger.total_ns)
        (Ledger.quantile_ns h 0.5 /. 1000.0)
        (Ledger.quantile_ns h 0.99 /. 1000.0))
    (Ledger.channels l)

(* ------------------------------------------------------------------ *)
(* Result printing                                                     *)
(* ------------------------------------------------------------------ *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json c metrics =
  let metric (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (c.failed = 0) c.attempted c.failed
    (String.concat ", " (List.map metric metrics))

let meta_json () =
  Printf.sprintf "{\"nproc\": %d, \"ocaml\": %S, \"profile\": %S}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Build_info.profile

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

(* Median-per-name over traced iterations. *)
let median_metrics iterations =
  match iterations with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, _, unit) ->
          let values =
            List.map
              (fun it ->
                List.fold_left (fun acc (n, v, _) -> if n = name then v else acc) 0.0 it)
              iterations
          in
          (name, median values, unit))
        first

let setup_repeats = 100

(* Calls [f] at least [min] times, then again while another call, taking
   as long as the last one, still ends within [seconds] of [start].
   Results in call order. *)
let repeat ~start ~seconds ~min f =
  let rec loop acc n =
    let t0 = Ledger.now_ns () in
    let acc = f () :: acc in
    let last = elapsed_since t0 in
    if n + 1 >= min && elapsed_since start +. last > seconds then List.rev acc
    else loop acc (n + 1)
  in
  loop [] 0

let run_untraced (w : Workload.t) ~seed ~seconds c =
  let start = Ledger.now_ns () in
  (* Set-up takes about a millisecond. It is repeated a fixed number of
     times, from a compacted heap, before every run of the cells: its
     median samples the whole measuring window without paying for the
     previous run's garbage, and the heap history before the first run is
     the same every time. *)
  let setup_s = ref [] in
  let peak_heap_words = ref None in
  let reps =
    repeat ~start ~seconds ~min:2 (fun () ->
        Gc.compact ();
        let run = ref None in
        for _ = 1 to setup_repeats do
          let t0 = Ledger.now_ns () in
          run := Some (setup w ~seed untimed ~on_checked:(fun _ _ -> ()));
          setup_s := elapsed_since t0 :: !setup_s
        done;
        let rep = run_rep (Option.get !run) in
        check c rep.outcome;
        if !peak_heap_words = None then
          peak_heap_words := Some (Gc.quick_stat ()).Gc.top_heap_words;
        rep)
  in
  let peak_heap_words = Option.get !peak_heap_words in
  List.iteri
    (fun i r -> Printf.eprintf "run %d: %.4f s (export %.4f s)\n" i r.run_s r.export_s)
    reps;
  List.iter
    (fun (cell, output) -> Printf.eprintf "%s: %s\n" cell output)
    (List.hd reps).outcome.Workload.cells;
  end_to_end w ~setup_s:!setup_s reps ~peak_heap_words

let run_traced (w : Workload.t) ~seed ~seconds c =
  let start = Ledger.now_ns () in
  let iteration () =
    let run = setup w ~seed untimed ~on_checked:(fun _ _ -> ()) in
    let plain = run_rep run in
    check c plain.outcome;
    let twin =
      Option.map
        (fun twin ->
          let rep = run_rep (twin ~seed) in
          check c rep.outcome;
          rep)
        w.Workload.twin
    in
    let l = Ledger.create () in
    let root_start = Ledger.now_ns () in
    let traced =
      Ledger.span l ~layer:"bench" "traced pass" (fun () ->
          let sp = { span = (fun ~layer name f -> Ledger.span l ~layer name f) } in
          let run =
            setup w ~seed sp ~on_checked:(fun name checked ->
                Ledger.register_asp l name checked.Planp.Typecheck.program)
          in
          run_rep ~ledger:l run)
    in
    let root_ns = Ledger.now_ns () - root_start in
    check ~against:plain.outcome c traced.outcome;
    print_ledger l ~root_ns;
    per_layer w ~plain ~twin ~traced ~root_ns l
  in
  median_metrics (repeat ~start ~seconds ~min:1 iteration)

let record_reference path =
  let oc = open_out path in
  List.iter
    (fun (w : Workload.t) ->
      let seed = Workload.default_seed in
      let outcomes =
        (run_rep (setup w ~seed untimed ~on_checked:(fun _ _ -> ()))).outcome
        :: Option.to_list (Option.map (fun twin -> (run_rep (twin ~seed)).outcome) w.Workload.twin)
      in
      List.iter
        (fun (o : Workload.outcome) ->
          if o.Workload.shape_failures <> [] then
            failwith
              (Printf.sprintf "%s breaks the paper's shape in %s" w.Workload.name
                 (String.concat ", " o.Workload.shape_failures));
          List.iter
            (fun (cell, output) -> Printf.fprintf oc "%s %s %s\n" w.Workload.name cell output)
            o.Workload.cells)
        outcomes)
    Workload.all;
  close_out oc

let () =
  let workload = ref "" and seed = ref Workload.default_seed and seconds = ref 10.0 in
  let trace = ref 0 and reference = ref "e2ebench/reference.txt" and out = ref None in
  let record = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME audio_fig6 | http_fig8 | audio_adapt_fleet");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42: the paper's inputs)");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--reference", Arg.Set_string reference, "FILE recorded outputs for the default seed");
      ("--out", Arg.String (fun f -> out := Some f), "FILE append the result record here");
      ("--record-reference", Arg.String (fun f -> record := Some f), "FILE record outputs");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "e2ebench: --trace takes 0 or 1";
    exit 2
  end;
  if Build_info.profile <> "release" then begin
    prerr_endline
      ("e2ebench: built in the " ^ Build_info.profile
     ^ " profile; build with --profile release (dev's -opaque disables the \
        inlining the fast path needs)");
    exit 2
  end;
  match !record with
  | Some path -> record_reference path
  | None ->
      let w =
        match Workload.find !workload with
        | Some w -> w
        | None ->
            prerr_endline ("e2ebench: unknown workload " ^ !workload);
            exit 2
      in
      let c =
        {
          workload = w.Workload.name;
          reference =
            (if !seed = Workload.default_seed then Some (read_reference !reference) else None);
          first = [];
          attempted = 0;
          failed = 0;
          reasons = [];
        }
      in
      let metrics =
        if !trace = 1 then run_traced w ~seed:!seed ~seconds:!seconds c
        else run_untraced w ~seed:!seed ~seconds:!seconds c
      in
      List.iter (fun r -> prerr_endline ("FAILED " ^ r)) (List.rev c.reasons);
      let result = result_json c metrics in
      let meta = meta_json () in
      Option.iter
        (fun path ->
          let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
          Printf.fprintf oc
            "{\"workload\": %S, \"seed\": %d, \"trace\": %d, \"meta\": %s, \"result\": %s}\n"
            w.Workload.name !seed !trace meta result;
          close_out oc)
        !out;
      print_endline ("{\"meta\": " ^ meta ^ "}");
      print_endline result
