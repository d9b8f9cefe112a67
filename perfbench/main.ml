(** The repository benchmark. One workload per process, one domain:

    {v
    main.exe --workload signoff_hw|glitch_power|flow_attack
             --seed N --seconds S --trace 0|1
    v}

    [--trace 0] times the job mix untraced and reports the end-to-end
    metrics. [--trace 1] additionally runs the mix traced (per-layer
    metrics, tracing overhead), a second time untraced with the same
    seed, and once on a held-out seed, and checks that deterministic
    outputs repeat exactly and that verdicts and failure classes hold.
    The last line of standard output is one JSON object
    [{"correct", "attempted", "failed", "metrics"}]; the lines before it
    are a readable report and the run's provenance. The exit code is 1
    when any known-answer or determinism check fails. *)

module Json = Eda_util.Telemetry.Json

let workloads = [ Signoff_hw.workload; Glitch_power.workload; Flow_attack.workload ]

(* Set-up is repeated at least [setup_min] times and until it has taken
   [setup_budget_s] of CPU (at most [setup_max] times); [setup_s] is the
   median. *)
let setup_min = 3
let setup_max = 25
let setup_budget_s = 1.0
let held_out seed = seed + 1_000_003

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_int seconds, "S nominal CPU seconds of the timed mix");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run") ]
    (fun a -> die ("unexpected argument " ^ a))
    usage;
  let w =
    match List.find_opt (fun w -> w.Workload.name = !workload) workloads with
    | Some w -> w
    | None ->
      die
        (Printf.sprintf "unknown workload %S (known: %s)" !workload
           (String.concat ", " (List.map (fun w -> w.Workload.name) workloads)))
  in
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  (w, !seed, !seconds, !trace = 1)

(** The timed mix and [setup_s]. *)
let setup (w : Workload.t) ~seed ~rounds =
  let rec go times =
    let mix, t, _ = Meter.timed (fun () -> w.Workload.setup ~seed ~rounds) in
    let times = t :: times in
    let n = List.length times in
    if n >= setup_max || (n >= setup_min && List.fold_left ( +. ) 0.0 times >= setup_budget_s) then
      (mix, Meter.median times)
    else go times
  in
  go []

let pass ?(probe = false) mix =
  let l = Ledger.create () in
  mix ~probe l;
  l

let traced_pass mix =
  let sink, events = Eda_util.Telemetry.memory_sink () in
  let l = Eda_util.Telemetry.with_sink ~clock:Meter.cpu sink (fun () -> pass ~probe:true mix) in
  match Eda_util.Telemetry.Trace.of_events (events ()) with
  | Ok trace -> (l, trace)
  | Error msg -> failwith ("trace reconstruction failed: " ^ msg)

(* Determinism: exact repeats between passes on one seed; verdicts and
   failure classes across seeds. *)
let determinism ~untraced ~traced ~again ~held_out =
  let exact j = (j.Ledger.fingerprint, j.Ledger.failures) in
  let verdict j = (j.Ledger.verdict, Ledger.classes j) in
  let report what keys = List.map (fun k -> Printf.sprintf "%s differs on %s" what k) keys in
  report "traced pass" (Ledger.mismatches ~project:exact untraced traced)
  @ report "second same-seed pass" (Ledger.mismatches ~project:exact untraced again)
  @ report "held-out seed verdict" (Ledger.mismatches ~project:verdict untraced held_out)

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun (name, v, u) -> Printf.printf "  %-36s %14.6g %s\n" name v u) ms

let () =
  let w, seed, seconds, trace = parse_args () in
  let rounds = max 1 (Float.to_int (Float.round (Float.of_int seconds /. w.Workload.round_s))) in
  let wall0 = Meter.wall () and steal0 = Meter.steal_s () and cpu0 = Meter.cpu () in
  let mix, setup_s = setup w ~seed ~rounds in
  let untraced = pass mix in
  let peak_rss_mb = Meter.peak_rss_mb () in
  let end_to_end =
    [ ("setup_s", setup_s, "s");
      ("makespan_s", Ledger.makespan untraced, "s");
      ("throughput_per_s", w.Workload.throughput untraced, "1/s");
      ("peak_rss_mb", peak_rss_mb, "MB") ]
  in
  let named = w.Workload.named untraced in
  let metrics, wrong =
    if not trace then (end_to_end, Ledger.wrong untraced)
    else begin
      let traced, trace_events = traced_pass mix in
      let again = pass mix in
      let held_mix, _ = setup w ~seed:(held_out seed) ~rounds in
      let held = pass held_mix in
      let all_named = List.concat_map (fun w -> w.Workload.named untraced) workloads in
      ( Layers.metrics ~trace:trace_events ~untraced ~traced @ all_named,
        List.concat_map Ledger.wrong [ untraced; traced; again; held ]
        @ determinism ~untraced ~traced ~again ~held_out:held )
    end
  in
  Printf.printf "workload %s  seed %d  rounds %d  trace %b\n" w.Workload.name seed rounds trace;
  print_metrics "end to end" (end_to_end @ named);
  if trace then print_metrics "per layer" metrics;
  Printf.printf "jobs\n";
  List.iter
    (fun j ->
      Printf.printf "  %-36s %9.4f s  %d/%d failed  %s\n" j.Ledger.key j.Ledger.cpu_s
        (List.length j.Ledger.failures) j.Ledger.attempted j.Ledger.verdict)
    (Ledger.jobs untraced);
  List.iter (fun msg -> Printf.printf "WRONG: %s\n" msg) wrong;
  let provenance =
    Json.JObj
      [ ("workload", Json.JStr w.Workload.name);
        ("seed", Json.JInt seed);
        ("rounds", Json.JInt rounds);
        ("nproc", Json.JInt (Domain.recommended_domain_count ()));
        ("ocaml", Json.JStr Sys.ocaml_version);
        ("profile", Json.JStr Build_info.profile);
        ("cpu_s", Json.JFloat (Meter.cpu () -. cpu0));
        ("wall_s", Json.JFloat (Meter.wall () -. wall0));
        ("steal_s", Json.JFloat (Meter.steal_s () -. steal0)) ]
  in
  Printf.printf "provenance %s\n" (Json.to_string provenance);
  let correct = wrong = [] in
  let result =
    Json.JObj
      [ ("correct", Json.JBool correct);
        ("attempted", Json.JInt (Ledger.attempted untraced));
        ("failed", Json.JInt (Ledger.failed untraced));
        ( "metrics",
          Json.JObj
            (List.map
               (fun (name, v, u) -> (name, Json.JObj [ ("value", Json.JFloat v); ("unit", Json.JStr u) ]))
               metrics) ) ]
  in
  print_endline (Json.to_string result);
  exit (if correct then 0 else 1)
