(** Pre-silicon power-trace simulation — the substitution for measuring a
    physical chip. Traces come from the glitch-aware event simulation
    (switching energy per time bin) or from zero-delay Hamming models;
    Gaussian noise stands in for the measurement chain. *)

type config = {
  time_bins : int;  (** samples per clock cycle *)
  bin_width_ps : float;
  noise_sigma : float;
}

val default_config : config

(** One cycle's trace for the transition [prev_inputs] -> [next_inputs];
    [input_arrivals] skews per-input switch times (late mask refresh). *)
val trace :
  Eda_util.Rng.t ->
  ?delay_of:(int -> Netlist.Gate.kind -> float) ->
  ?input_arrivals:float array ->
  ?state:bool array ->
  Netlist.Circuit.t ->
  config:config ->
  prev_inputs:bool array ->
  next_inputs:bool array ->
  float array

(** Whole cycle integrated into one sample (glitch-aware). *)
val total_energy :
  Eda_util.Rng.t ->
  ?delay_of:(int -> Netlist.Gate.kind -> float) ->
  ?state:bool array ->
  Netlist.Circuit.t ->
  noise_sigma:float ->
  prev_inputs:bool array ->
  next_inputs:bool array ->
  float

(** Zero-delay Hamming-distance sample between two settled states.
    [scratch]/[scratch2] are reusable net-value buffers (length >= node
    count); hoist them out of a campaign loop for zero per-sample
    allocation. *)
val hamming_distance_sample :
  Eda_util.Rng.t ->
  ?scratch:bool array ->
  ?scratch2:bool array ->
  Netlist.Circuit.t ->
  noise_sigma:float ->
  prev_inputs:bool array ->
  next_inputs:bool array ->
  float

(** Weighted Hamming weight of the settled state (precharged-logic model).
    [scratch] is a reusable net-value buffer (length >= node count). *)
val hamming_weight_sample :
  Eda_util.Rng.t ->
  ?scratch:bool array ->
  Netlist.Circuit.t ->
  noise_sigma:float ->
  inputs:bool array ->
  float

(** Bit-sliced {!hamming_weight_sample}: [hamming_weight_lanes circuit
    ~noise_sigma streams inputs] samples one energy per lane, lane [l]
    reading bit [l] of every input word and drawing its noise from
    [streams.(l)]. Partial application to [circuit] and [noise_sigma]
    precomputes the per-node energy classes; apply once per circuit and
    reuse the sampler (it is safe to call from several domains). Lane
    [l]'s energy is Σ_k w_k·n_k,l over the distinct switching energies
    w_k, so it equals the scalar sample on lane [l]'s vector up to the
    summation order (ulp level).
    @raise Invalid_argument unless there are 1 to 63 streams. *)
val hamming_weight_lanes :
  Netlist.Circuit.t -> noise_sigma:float -> Eda_util.Rng.t array -> int array -> float array

(** Quiescent-current (IDDQ) sample: per-cell leakage with input-state
    dependence and an environmental [temperature_factor]. [scratch] is a
    reusable net-value buffer (length >= node count). *)
val iddq_sample :
  Eda_util.Rng.t ->
  ?scratch:bool array ->
  Netlist.Circuit.t ->
  inputs:bool array ->
  noise_sigma:float ->
  temperature_factor:float ->
  float
