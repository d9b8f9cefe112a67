(** The paper's motivational experiment (Fig. 2), end to end.

    A private (ISW-masked) AND gate is synthesized twice:
    - security-aware: the masked accumulation chains are protected, so the
      netlist keeps the prescribed association order;
    - security-unaware: the classical flow applies factoring-friendly XOR
      re-association, creating an intermediate wire whose value distribution
      depends on the unmasked secret.

    Both are then evaluated with fixed-vs-random TVLA under a first-order
    Hamming-weight power model ({!Secure_synth.assess}). The glitch
    variant repeats the assessment with the delay-annotated event
    simulation, reproducing the Sec. III-E point that glitches leak even
    from correctly synthesized masking. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Masking = Synth.Masking
module Rng = Eda_util.Rng

(** The paper's example target: c = a AND b, to be masked. *)
let private_and_source () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let y = Circuit.add_gate ~name:"y" c Gate.And [ a; b ] in
  Circuit.set_output c "y" y;
  c

type variant = Security_aware | Security_unaware

(** Masked-and-synthesized circuit for one flow variant. *)
let synthesize_masked ?(shares = 3) variant =
  let masked = (Masking.transform ~shares (private_and_source ())).Masking.circuit in
  match variant with
  | Security_aware ->
    (* The aware flow always fences the mg_ gadget internals. *)
    Synth.Flow.optimize_secure masked
  | Security_unaware ->
    (* The classical flow is free to re-associate (Fig. 2). *)
    Synth.Xor_reassoc.run masked

(** Secret inputs (a, b) of one trace: (1, 1) in the fixed class, uniform
    in the random class. *)
let secrets rng = function
  | `Fixed -> true, true
  | `Random -> Rng.bool rng, Rng.bool rng

(* The campaigns below drive any circuit through its net names
   ({!Isw.stimulus}): fixed class all secrets true, random class uniform,
   shares and masking randomness fresh per trace. *)

(** Glitch-aware variant: traces from the delay-annotated event simulation,
    with inputs switching from an all-zero reference state.
    [mask_skew_ps > 0] delays the arrival of the masking randomness inputs
    by that much — the late-mask-refresh scenario in which share products
    are transiently combined before the fresh randomness lands, the classic
    glitch-leakage mechanism of [55] (Sec. III-E). *)
let tvla_campaign_glitch ?(mask_skew_ps = 0.0) rng c ~traces_per_class ~config =
  let st = Isw.stimulus c in
  let ni = Circuit.num_inputs c in
  let input_arrivals = Array.make ni 0.0 in
  Array.iter (fun p -> input_arrivals.(p) <- mask_skew_ps) st.Isw.randoms;
  let collect stream cls =
    let next = Isw.vector st stream ~value:(Isw.class_value stream cls) in
    Power.Model.trace stream c ~config ~input_arrivals ~prev_inputs:(Array.make ni false)
      ~next_inputs:next
  in
  Tvla.campaign_seeded rng ~traces_per_class ~collect

(** Mask-failure variant: the masking randomness is stuck at zero (a dead
    TRNG — the failure mode the RNG health tests of [41] guard against).
    The shares then carry deterministic combinations of the secret and the
    "masked" circuit leaks like an unmasked one; this is the limit case of
    the timing-model question of Sec. III-E (a mask that arrives after the
    evaluation window is as good as no mask). *)
let tvla_campaign_mask_failure rng c ~traces_per_class ~noise_sigma =
  Tvla.campaign_batched rng ~traces_per_class
    ~collect_batch:(Secure_synth.hw_collect ~stuck_randomness:true c ~noise_sigma)

(** Find the most leaking internal wire of a masked circuit: one campaign
    whose trace is the vector of node values, so each node gets its own
    fixed-vs-random t. Identifies the factored wire of Fig. 2 by name. *)
let leakiest_wire rng c ~samples =
  let st = Isw.stimulus c in
  let values = Array.make (Circuit.node_count c) false in
  let collect stream cls =
    let vec = Isw.vector st stream ~value:(Isw.class_value stream cls) in
    Netlist.Sim.eval_all_into c vec ~into:values;
    Array.map (fun v -> if v then 1.0 else 0.0) values
  in
  let r = Tvla.campaign_seeded rng ~traces_per_class:samples ~collect in
  let abs_t = Array.map Float.abs r.Tvla.t_per_sample in
  let best = Eda_util.Stats.argmax abs_t in
  Circuit.name c best, abs_t.(best)
