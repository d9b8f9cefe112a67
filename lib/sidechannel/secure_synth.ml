(** The [secure_synthesis] recipe and its TVLA verification pass — the
    constructive closing of the loop the paper argues for (Sec. III/IV):
    masking is inserted {e by} the synthesis flow, the re-optimization
    respects the gadget fences, and the flow itself checks the result
    leakage-free before signing it off.

    Lives here rather than in [lib/synth] because the check needs the
    {!Tvla} engine and the Hamming-weight power model, which sit above
    synthesis in the dependency order. Consequently registration is
    explicit: call {!register} once (the CLI and tests do) before asking
    the registry for [tvla_check] or [secure_synthesis].

    The assessment drives the circuit through its net names
    ({!Isw.stimulus}): share groups are re-encoded from the secret per
    trace, gadget randomness is fresh per trace, unshared inputs carry
    the secret directly. One assessment therefore covers masked and
    unmasked circuits alike — which is how {!verify} can also assert
    that the {e unmasked} design fails the very check the masked one
    passes. *)

module Circuit = Netlist.Circuit
module Rng = Eda_util.Rng

(** The batch collector of the Hamming-weight campaigns: lane [l] of a
    batch draws its stimulus from [streams.(l)] exactly as {!Isw.vector}
    would (then, with [stuck_randomness], the randomness inputs are
    cleared), and one {!Power.Model.hamming_weight_lanes} call samples
    the whole batch. Buffers are per call, so pooled batches share
    nothing. *)
let hw_collect ?(stuck_randomness = false) c ~noise_sigma =
  let st = Isw.stimulus c in
  let sample = Power.Model.hamming_weight_lanes c ~noise_sigma in
  fun streams cls ->
    let words = Array.make (Circuit.num_inputs c) 0 in
    Array.iteri
      (fun l stream -> Isw.fill_lane st stream ~value:(Isw.class_value stream cls) words l)
      streams;
    if stuck_randomness then Array.iter (fun p -> words.(p) <- 0) st.Isw.randoms;
    Array.map (fun e -> [| e |]) (sample streams words)

(** One fixed-vs-random Hamming-weight TVLA campaign over any circuit.
    Fixed class: every secret input true; random class: uniform secrets.
    Masking randomness is fresh in both classes. Bit-identical at any
    pool size (see {!Tvla.campaign_batched}). *)
let assess ?pool rng c ~traces_per_class ~noise_sigma =
  Tvla.campaign_batched ?pool rng ~traces_per_class ~collect_batch:(hw_collect c ~noise_sigma)

(** Convenience verdict: does the circuit leak under {!assess}? *)
let leaks ?pool rng c ~traces_per_class ~noise_sigma =
  Tvla.leaks (assess ?pool rng c ~traces_per_class ~noise_sigma)

type verification = {
  masked_result : Tvla.result;
  unmasked_result : Tvla.result;
}

(** Assess [masked] and its unmasked [reference] under identical
    campaigns: the secure-synthesis acceptance argument is the pair
    (masked clean, reference leaking), not either verdict alone — a
    too-noisy campaign that cannot even catch the unmasked design proves
    nothing about the masked one. *)
let verify ?pool rng ~reference masked ~traces_per_class ~noise_sigma =
  { masked_result = assess ?pool rng masked ~traces_per_class ~noise_sigma;
    unmasked_result = assess ?pool rng reference ~traces_per_class ~noise_sigma }

(* --- Registration ------------------------------------------------------ *)

let param_float ctx key ~default =
  match Synth.Pass.param ctx key with
  | None -> default
  | Some v ->
    (match float_of_string_opt v with
     | Some f -> f
     | None -> invalid_arg (Printf.sprintf "tvla_check: parameter %s=%s is not a float" key v))

let tvla_pass =
  Synth.Pass.make ~name:"tvla_check"
    ~doc:
      "Leakage gate: fixed-vs-random Hamming-weight TVLA; fails the pipeline \
       on |t| > 4.5 (params: traces, noise_sigma, seed)"
    ~check:(fun ctx c ->
      let traces = Synth.Pass.param_int ctx "traces" ~default:1500 in
      let noise_sigma = param_float ctx "noise_sigma" ~default:0.8 in
      let seed = Synth.Pass.param_int ctx "seed" ~default:7 in
      let result =
        assess ?pool:ctx.Synth.Pass.pool (Rng.create (0x74766c61 + seed)) c
          ~traces_per_class:traces ~noise_sigma
      in
      if Tvla.leaks result then
        Error
          (Printf.sprintf "TVLA leakage: max |t| = %.2f over %d traces/class (threshold %.1f)"
             result.Tvla.max_abs_t traces Tvla.threshold)
      else Ok ())
    (fun _ c -> c)

let secure_synthesis =
  Synth.Pipeline.make ~name:"secure_synthesis"
    ~doc:
      "Mask annotated regions (or the whole circuit), re-optimize behind the \
       gadget fence, then gate on a TVLA leakage check (params: shares, \
       style, seed, region, traces, noise_sigma)"
    [ Synth.Pipeline.pass "mask_insertion";
      Synth.Pipeline.Protect
        { prefixes = Synth.Masking.gadget_prefixes;
          body =
            [ Synth.Pipeline.pass "constant_propagation";
              Synth.Pipeline.pass "strash";
              Synth.Pipeline.pass "xor_reassoc" ] };
      Synth.Pipeline.pass "tvla_check" ]

let registered = ref false

(** Register [tvla_check] and [secure_synthesis]; idempotent. Explicit
    because cross-library registration cannot rely on module initializers
    of unreferenced archive members being linked. *)
let register () =
  if not !registered then begin
    registered := true;
    Synth.Pass.register tvla_pass;
    Synth.Pipeline.register secure_synthesis
  end
