(** [glitch_power]: the hard cases of the glitch-aware power model.
    Every trace is one {!Power.Model.trace} call, i.e. one transport-delay
    {!Timing.Event_sim.cycle} binned into energy samples:
    - cycles on the [secure_synthesis] output for [aes_round_datapath]
      (about 5k gates and 2e5 transitions per cycle; some cycles raise
      the event-storm guard, and count as failed traces);
    - traces on [Bench_gen] Layered logic at about 2k and 8k gates, for
      size scaling;
    - a fixed-vs-random {!Sidechannel.Tvla.campaign_seeded} campaign on
      masked [present_round_datapath] whose traces are glitch traces, so
      the TVLA engine is exercised with 16-sample traces here and
      1-sample traces in [signoff_hw].
    [timing] and the [power] binning carry the time; [synth] (masking is
    set-up) and [sat] are absent from the timed mix. *)

module Circuit = Netlist.Circuit
module Rng = Eda_util.Rng
module Tvla = Sidechannel.Tvla

let config = Power.Model.default_config

(** Seed of the fixed testbench for the masked AES cycles and the 8k-gate
    traces. One AES cycle costs 0.03 to 1.6 s CPU depending on its
    vectors (an event storm costs the most), so a dozen seed-drawn
    vectors would swing a run by 20 %; these two parts replay the same
    vectors, one storming cycle per round included, on every seed. *)
let testbench = 0x9e3779b

(* Traces per round, per design. *)
let aes_cycles = 4
let layered_2k_traces = 50
let layered_8k_traces = 4
let tvla_traces_per_class = 750

(** Bench-side probe totals: the event simulation re-run on the same
    vectors, so the traced pass can split a trace into event simulation
    and binning and count what the simulation produced. *)
type probe = {
  mutable event_sim_s : float;
  mutable probe_s : float;
  mutable cycles : int;
  mutable transitions : int;
  mutable glitching : int;
  mutable clamped : int;
  mutable storms : int;
}

let new_probe () =
  { event_sim_s = 0.0; probe_s = 0.0; cycles = 0; transitions = 0; glitching = 0; clamped = 0; storms = 0 }

let probe_stats p =
  [ ("probe_s", p.probe_s);
    ("event_sim_s", p.event_sim_s);
    ("cycles", Float.of_int p.cycles);
    ("transitions", Float.of_int p.transitions);
    ("glitching_nets", Float.of_int p.glitching);
    ("clamped", Float.of_int p.clamped);
    ("storms", Float.of_int p.storms) ]

let window_ps = Float.of_int config.Power.Model.time_bins *. config.Power.Model.bin_width_ps

let run_probe p c ~prev ~next =
  let t0 = Meter.cpu () in
  (match Timing.Event_sim.cycle c ~prev_inputs:prev ~next_inputs:next with
   | trs ->
     p.event_sim_s <- p.event_sim_s +. (Meter.cpu () -. t0);
     p.cycles <- p.cycles + 1;
     p.transitions <- p.transitions + List.length trs;
     p.glitching <- p.glitching + List.length (Timing.Event_sim.glitching_nodes c trs);
     p.clamped <-
       p.clamped + List.length (List.filter (fun tr -> tr.Timing.Event_sim.time >= window_ps) trs)
   | exception Invalid_argument _ ->
     p.event_sim_s <- p.event_sim_s +. (Meter.cpu () -. t0);
     p.storms <- p.storms + 1);
  p.probe_s <- p.probe_s +. (Meter.cpu () -. t0)

let glitch_trace ~probe p stream c ~prev ~next =
  if probe then run_probe p c ~prev ~next;
  Power.Model.trace stream c ~config ~prev_inputs:prev ~next_inputs:next

let valid trace =
  Array.length trace = config.Power.Model.time_bins && Array.for_all Float.is_finite trace

let random_vector stream n = Array.init n (fun _ -> Rng.bool stream)

(** [n] traces on random input transitions; a trace that raises is a
    failed operation of its exception's class. *)
let batch l ~probe ~stimulus ~round ~masked name text n =
  Ledger.job l ~kind:"glitch" ~design:name ~round (fun () ->
      let c = Workload.parse text in
      let ni = Circuit.num_inputs c in
      let p = new_probe () in
      let digest = Buffer.create 4096 in
      let failures = ref [] in
      let completed = ref 0 in
      Array.iter
        (fun stream ->
          let prev = random_vector stream ni in
          let next = random_vector stream ni in
          match glitch_trace ~probe p stream c ~prev ~next with
          | trace ->
            incr completed;
            Ledger.check l (valid trace) (name ^ ": glitch trace with a wrong bin count or a non-finite sample");
            Array.iter (fun x -> Buffer.add_string digest (Meter.exact x)) trace
          | exception e ->
            let cls = Workload.failure_class e in
            failures := cls :: !failures;
            Buffer.add_string digest cls)
        (Rng.split (Rng.create (Meter.derive stimulus round)) n);
      ( n,
        !failures,
        "traces valid",
        Digest.to_hex (Digest.string (Buffer.contents digest)),
        [ ("traces", Float.of_int !completed); ("masked_gates", if masked then Float.of_int (Workload.gates c) else 0.0) ]
        @ probe_stats p ))

(** Fixed-vs-random campaign whose traces are glitch traces. Fixed
    class: every secret true; random class: uniform secrets. Secrets are
    share-encoded per trace and masking randomness is fresh, on both the
    previous and the next input vector. *)
let tvla l ~probe ~seed ~round name text =
  Ledger.job l ~kind:"glitch_tvla" ~design:name ~round (fun () ->
      let c = Workload.parse text in
      let iface = Synth.Masking.interface_of c in
      let pos = Hashtbl.create 64 in
      Array.iteri (fun k id -> Hashtbl.replace pos id k) (Circuit.inputs c);
      let ni = Circuit.num_inputs c in
      let vector stream secret =
        let v = Array.make ni false in
        List.iter
          (fun (_, ids) ->
            let shares = Sidechannel.Isw.encode stream ~shares:(Array.length ids) (secret stream) in
            Array.iteri (fun s id -> v.(Hashtbl.find pos id) <- shares.(s)) ids)
          iface.Synth.Masking.secrets;
        Array.iter (fun id -> v.(Hashtbl.find pos id) <- Rng.bool stream) iface.Synth.Masking.randoms;
        v
      in
      let p = new_probe () in
      let all_valid = ref true in
      let collect stream cls =
        let prev = vector stream Rng.bool in
        let next = vector stream (match cls with `Fixed -> fun _ -> true | `Random -> Rng.bool) in
        let trace = glitch_trace ~probe p stream c ~prev ~next in
        if not (valid trace) then all_valid := false;
        trace
      in
      let traces = 2 * tvla_traces_per_class in
      match
        Tvla.campaign_seeded (Rng.create (Meter.derive seed ((1000 * round) + 9)))
          ~traces_per_class:tvla_traces_per_class ~collect
      with
      | r ->
        Ledger.check l !all_valid (name ^ ": glitch trace with a wrong bin count or a non-finite sample");
        ( traces,
          [],
          "campaign completed",
          String.concat " " (List.map Meter.exact (Array.to_list r.Tvla.t_per_sample)),
          [ ("traces", Float.of_int traces);
            ("masked_gates", Float.of_int (Workload.gates c));
            ("max_abs_t", r.Tvla.max_abs_t) ]
          @ probe_stats p )
      | exception e ->
        let cls = Workload.failure_class e in
        (traces, List.init traces (fun _ -> cls), "campaign failed", cls, probe_stats p))

let masked ~mask_seed ~shares ~style c =
  Netlist.Io.to_string
    (Synth.Pipeline.run_recipe
       ~params:
         [ ("shares", string_of_int shares);
           ("style", style);
           ("seed", string_of_int mask_seed);
           ("noise_sigma", "0.8") ]
       "secure_synthesis" c)

let setup ~seed ~rounds =
  Sidechannel.Secure_synth.register ();
  let aes =
    masked ~mask_seed:testbench ~shares:2 ~style:"isw" (Crypto.Sbox_circuit.aes_round_datapath ())
  in
  let present =
    masked ~mask_seed:(Meter.derive seed 2) ~shares:2 ~style:"isw"
      (Crypto.Sbox_circuit.present_round_datapath ())
  in
  let layered target =
    Netlist.Io.to_string
      (Netlist.Bench_gen.sized ~seed:Meter.design_seed Netlist.Bench_gen.Layered ~target_gates:target)
  in
  let l2k = layered 2000 and l8k = layered 8000 in
  fun ~probe l ->
    for round = 0 to rounds - 1 do
      batch l ~probe ~stimulus:testbench ~round ~masked:true "aes_round_masked" aes aes_cycles;
      batch l ~probe ~stimulus:(testbench + 1) ~round ~masked:false "layered_8k" l8k layered_8k_traces;
      batch l ~probe ~stimulus:(Meter.derive seed 3) ~round ~masked:false "layered_2k" l2k layered_2k_traces;
      tvla l ~probe ~seed ~round "present_round_masked" present
    done

let glitch_traces_per_s l = Ledger.rate l ~kinds:[ "glitch"; "glitch_tvla" ] "traces"

let workload =
  { Workload.name = "glitch_power";
    round_s = 6.3;
    setup;
    throughput = glitch_traces_per_s;
    named = (fun l -> [ ("glitch_traces_per_s", glitch_traces_per_s l, "1/s") ]) }
