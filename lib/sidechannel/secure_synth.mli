(** The [secure_synthesis] recipe and its TVLA verification pass: mask
    annotated regions inside the flow, re-optimize behind the gadget
    fence, then gate sign-off on a fixed-vs-random TVLA campaign.

    Registration is explicit ({!register}) because this lives above
    [lib/synth] in the dependency order. *)

(** [hw_collect c ~noise_sigma] is the [collect_batch] of a
    Hamming-weight campaign over [c] ({!Tvla.campaign_batched}): per
    lane, the stimulus {!Isw.vector} would draw from that lane's stream
    (fixed class: all secrets true; random class: uniform), evaluated
    all lanes in one machine word by {!Power.Model.hamming_weight_lanes},
    one single-sample trace per lane. With [stuck_randomness] every
    masking-randomness input is cleared after the draw (a dead TRNG).
    Each call allocates its own buffers. *)
val hw_collect :
  ?stuck_randomness:bool ->
  Netlist.Circuit.t ->
  noise_sigma:float ->
  Eda_util.Rng.t array ->
  [ `Fixed | `Random ] ->
  float array array

(** One fixed-vs-random Hamming-weight TVLA campaign over any circuit,
    masked or not, driven through its net names ({!Isw.stimulus}):
    share groups are re-encoded from the secret per trace, gadget
    randomness ([mg_]/[dom_] inputs) is fresh per trace, unshared inputs
    carry the secret directly. Fixed
    class: all secrets true; random class: uniform. Bit-identical at any
    pool size. This is the one first-order Hamming-weight fixed-vs-random
    harness: the Fig. 2 contrast, sign-off and the CLI all run it. *)
val assess :
  ?pool:Eda_util.Pool.t ->
  Eda_util.Rng.t ->
  Netlist.Circuit.t ->
  traces_per_class:int ->
  noise_sigma:float ->
  Tvla.result

(** [Tvla.leaks] of {!assess}. *)
val leaks :
  ?pool:Eda_util.Pool.t ->
  Eda_util.Rng.t ->
  Netlist.Circuit.t ->
  traces_per_class:int ->
  noise_sigma:float ->
  bool

type verification = {
  masked_result : Tvla.result;
  unmasked_result : Tvla.result;
}

(** Assess [masked] and its unmasked [reference] under identical
    campaigns. The acceptance argument is the pair (masked clean,
    reference leaking) — a campaign too weak to catch the unmasked
    design proves nothing about the masked one. *)
val verify :
  ?pool:Eda_util.Pool.t ->
  Eda_util.Rng.t ->
  reference:Netlist.Circuit.t ->
  Netlist.Circuit.t ->
  traces_per_class:int ->
  noise_sigma:float ->
  verification

(** The [tvla_check] pass: identity transform whose invariant check runs
    {!assess} and fails the pipeline on leakage
    (params [traces], [noise_sigma], [seed]). *)
val tvla_pass : Synth.Pass.t

(** The recipe: [mask_insertion] → protected re-optimization →
    [tvla_check]. *)
val secure_synthesis : Synth.Pipeline.t

(** Register both with the [Synth] registries; idempotent. *)
val register : unit -> unit
