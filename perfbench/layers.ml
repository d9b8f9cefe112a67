(** Per-layer metrics of the traced pass. Layer names are the [lib/]
    modules. Times come from the spans the engines already emit and
    from the benchmark's own [bench.<kind>] job spans, recorded by the
    in-memory {!Eda_util.Telemetry} sink on a CPU clock; counts come
    from the engines' counters, the ledger and the bench-side probes. A
    metric of a layer the workload does not reach reads 0. *)

module Tr = Eda_util.Telemetry.Trace

let rec collect acc (s : Tr.span) = List.fold_left collect (s :: acc) s.Tr.children

(* Spans of the benchmark's timed jobs: the [bench.<kind>] roots and
   everything under them. Checks run between jobs are left out. *)
let job_spans (t : Tr.t) =
  List.concat_map (collect [])
    (List.filter (fun (s : Tr.span) -> String.starts_with ~prefix:"bench." s.Tr.name) t.Tr.roots)

let time_of pred ss = List.fold_left (fun acc s -> if pred s then acc +. Tr.duration s else acc) 0.0 ss

let named name (s : Tr.span) = s.Tr.name = name

(* Spans of the subtrees rooted at spans named [name]. *)
let under name ss = List.concat_map (collect []) (List.filter (named name) ss)

let counter name ss =
  List.fold_left
    (fun acc (s : Tr.span) -> acc +. Option.value (List.assoc_opt name s.Tr.counters) ~default:0.0)
    0.0 ss

let ratio a b = if b > 0.0 then a /. b else 0.0

let stage_slug = function
  | Secure_eda.Flow.Logic_synthesis -> "logic_synthesis"
  | Secure_eda.Flow.Physical_synthesis -> "physical_synthesis"
  | Secure_eda.Flow.Timing_power_verification -> "timing_power_verification"
  | Secure_eda.Flow.Testing -> "testing"

(** [(name, value, unit)] for every per-layer metric. [untraced] is the
    timed pass, [traced] the pass recorded into [trace]. *)
let metrics ~trace ~(untraced : Ledger.t) ~(traced : Ledger.t) =
  let ss = job_spans trace in
  let jobs kinds = List.filter (fun j -> List.mem j.Ledger.kind kinds) (Ledger.jobs traced) in
  let glitch = jobs [ "glitch"; "glitch_tvla" ] in
  let stat js name = Ledger.sum (fun j -> Ledger.stat j name) js in
  let event_sim_s = stat glitch "event_sim_s" in
  let transitions = stat glitch "transitions" in
  let cycles = stat glitch "cycles" in
  let atpg_spans = under "bench.atpg" ss in
  let atpg_jobs = jobs [ "atpg" ] in
  let by_sat = counter "atpg.detected" atpg_spans +. counter "atpg.untestable" atpg_spans in
  let atpg_conflicts = counter "sat.conflicts" atpg_spans in
  let sat_solve_s = time_of (named "sat.solve") ss in
  let gc f = Ledger.sum (fun j -> f j.Ledger.gc) (Ledger.jobs untraced) in
  let reopt =
    time_of
      (fun s ->
        String.starts_with ~prefix:"synth.pass." s.Tr.name
        && not (List.mem s.Tr.name [ "synth.pass.mask_insertion"; "synth.pass.tvla_check" ]))
      (under "synth.recipe.secure_synthesis" ss)
  in
  let stage_time stage =
    let label = Secure_eda.Flow.stage_name stage in
    time_of
      (fun s -> named "flow.stage" s && List.assoc_opt "stage" s.Tr.attrs = Some (Eda_util.Telemetry.Str label))
      ss
  in
  [ ("netlist.parse_s", time_of (named "bench.parse") ss, "s");
    ("synth.mask_insertion_s", time_of (named "synth.pass.mask_insertion") ss, "s");
    ("synth.reopt_s", reopt, "s");
    ("synth.optimize_s", time_of (fun s -> named "synth.optimize" s || named "synth.optimize_secure" s) ss, "s");
    ("synth.masked_gates", Ledger.total traced "masked_gates", "count");
    ("sidechannel.tvla_gate_s", time_of (named "synth.pass.tvla_check") ss, "s");
    ( "power.hw_ns_per_gate_trace",
      1e9 *. ratio (Ledger.cpu (jobs [ "verify" ])) (Ledger.total traced "gate_traces"),
      "ns" );
    ("timing.event_sim_s", event_sim_s, "s");
    ("timing.ns_per_transition", 1e9 *. ratio event_sim_s transitions, "ns");
    ("power.bin_s", (if glitch = [] then 0.0 else Ledger.cpu glitch -. event_sim_s), "s");
    ("timing.transitions_per_trace", ratio transitions cycles, "count");
    ("timing.glitching_nets_per_trace", ratio (stat glitch "glitching_nets") cycles, "count");
    ("timing.storms", stat glitch "storms", "count");
    ("power.clamped_share", ratio (stat glitch "clamped") transitions, "ratio");
    ("dft.atpg_s", Ledger.cpu atpg_jobs, "s");
    ("dft.faults_by_simulation", counter "atpg.covered_by_simulation" atpg_spans, "count");
    ("dft.faults_by_sat", by_sat, "count");
    ("dft.conflicts_per_sat_fault", ratio atpg_conflicts by_sat, "count");
    ("dft.faults_remaining", stat atpg_jobs "faults_remaining", "count");
    ("dft.conflicts_unreported", atpg_conflicts -. stat atpg_jobs "reported_conflicts", "count");
    ("sat.solve_s", sat_solve_s, "s");
    ("sat.encode_s", time_of (named "cnf.encode") ss, "s");
    ("sat.props_per_s", ratio (counter "sat.propagations" ss) sat_solve_s, "1/s");
    ("sat.conflicts", counter "sat.conflicts" ss, "count");
    ("locking.dips", stat (jobs [ "attack" ]) "dips", "count");
    ("locking.dip_solve_s", time_of (named "sat_attack.dip") ss, "s");
    ("physical.place_s", time_of (named "placement.place") ss, "s");
    ( "physical.moves_per_s",
      ratio
        (counter "placement.moves_accepted" ss +. counter "placement.moves_rejected" ss)
        (time_of (named "placement.anneal") ss),
      "1/s" ) ]
  @ List.map
      (fun stage -> (Printf.sprintf "core.flow.%s_s" (stage_slug stage), stage_time stage, "s"))
      Secure_eda.Flow.all_stages
  @ [ ("gc.minor_mwords", gc (fun g -> g.Meter.minor_words) /. 1e6, "Mwords");
      ("gc.major_collections", gc (fun g -> Float.of_int g.Meter.major_collections), "count");
      ("trace_overhead_s", Ledger.makespan traced -. Ledger.makespan untraced, "s") ]
