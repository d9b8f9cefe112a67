(** Pre-silicon power-trace simulation — the substitution for measuring a
    physical chip with an oscilloscope.

    Each simulated clock cycle yields a trace: the cycle is divided into
    time bins and every net transition (from the glitch-aware event
    simulation) deposits the switching energy of its driving cell into the
    bin of its time stamp. Gaussian noise of configurable sigma models the
    measurement chain. This is the standard CMOS dynamic-power proxy the
    paper's timing-and-power-verification row relies on: leakage present in
    this model is leakage an attacker with a probe will see. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

type config = {
  time_bins : int;  (* samples per clock cycle *)
  bin_width_ps : float;
  noise_sigma : float;  (* additive Gaussian noise per sample *)
}

let default_config = { time_bins = 16; bin_width_ps = 50.0; noise_sigma = 0.5 }

(** One cycle's power trace for the transition [prev_inputs] ->
    [next_inputs]. [input_arrivals] skews input switch times. *)
let trace rng ?delay_of ?input_arrivals ?state circuit ~config ~prev_inputs ~next_inputs =
  let transitions =
    Timing.Event_sim.cycle ?delay_of ?input_arrivals ?state circuit ~prev_inputs ~next_inputs
  in
  let samples = Array.make config.time_bins 0.0 in
  List.iter
    (fun tr ->
      let bin =
        Float.to_int (tr.Timing.Event_sim.time /. config.bin_width_ps)
      in
      let bin = if bin < 0 then 0 else if bin >= config.time_bins then config.time_bins - 1 else bin in
      let energy = Gate.switch_energy (Circuit.kind circuit tr.Timing.Event_sim.node) in
      samples.(bin) <- samples.(bin) +. energy)
    transitions;
  if config.noise_sigma > 0.0 then
    for k = 0 to config.time_bins - 1 do
      samples.(k) <-
        samples.(k) +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:config.noise_sigma
    done;
  samples

(** Total-energy sample (the whole cycle integrated into one number); the
    model CPA-style attacks typically assume. *)
let total_energy rng ?delay_of ?state circuit ~noise_sigma ~prev_inputs ~next_inputs =
  let transitions =
    Timing.Event_sim.cycle ?delay_of ?state circuit ~prev_inputs ~next_inputs
  in
  let e =
    List.fold_left
      (fun acc tr ->
        acc +. Gate.switch_energy (Circuit.kind circuit tr.Timing.Event_sim.node))
      0.0 transitions
  in
  e +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:noise_sigma

(* Net-value buffer for the zero-delay samplers: the caller-provided
   [?scratch] when present (hoisted out of a trace-campaign loop — zero
   per-sample allocation), a fresh array otherwise. *)
let value_buffer ?scratch circuit =
  match scratch with
  | Some b ->
    assert (Array.length b >= Circuit.node_count circuit);
    b
  | None -> Array.make (Circuit.node_count circuit) false

(** Zero-delay Hamming-distance power model: energy proportional to the
    number of nets whose settled value changes between two input vectors.
    Cheaper than event simulation; no glitch component. [scratch] /
    [scratch2] are reusable net-value buffers (>= node count each). *)
let hamming_distance_sample rng ?scratch ?scratch2 circuit ~noise_sigma ~prev_inputs
    ~next_inputs =
  let before = value_buffer ?scratch circuit in
  let after = value_buffer ?scratch:scratch2 circuit in
  Netlist.Sim.eval_all_into circuit prev_inputs ~into:before;
  Netlist.Sim.eval_all_into circuit next_inputs ~into:after;
  let e = ref 0.0 in
  for i = 0 to Circuit.node_count circuit - 1 do
    if before.(i) <> after.(i) then
      e := !e +. Gate.switch_energy (Circuit.kind circuit i)
  done;
  !e +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:noise_sigma

(** Hamming-weight model of the settled state: energy proportional to the
    weighted count of nets at 1. Used for leakage models of precharged
    buses. [scratch] is a reusable net-value buffer (>= node count). *)
let hamming_weight_sample rng ?scratch circuit ~noise_sigma ~inputs =
  let values = value_buffer ?scratch circuit in
  Netlist.Sim.eval_all_into circuit inputs ~into:values;
  let e = ref 0.0 in
  for i = 0 to Circuit.node_count circuit - 1 do
    if values.(i) then e := !e +. Gate.switch_energy (Circuit.kind circuit i)
  done;
  !e +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:noise_sigma

(** Bit-sliced {!hamming_weight_sample} over up to 63 lanes. Applied to
    [circuit] and [noise_sigma] it groups the nodes by distinct non-zero
    [Gate.switch_energy] (classes in order of first occurrence); the
    returned sampler takes one stream per lane and the input words (bit
    [l] of word [p] is input [p] of lane [l]), evaluates all lanes with
    one [Sim.eval_all_word_into], and adds every node's word into its
    class's vertical counter: plane [p] holds bit [p] of every lane's
    count. Nodes go in runs of 15 through a branch-free 4-plane partial
    count, which is then ripple-added into the class planes. Lane [l]'s energy is Σ_k w_k·n_k,l, classes summed in order,
    plus one [gaussian_scaled] draw from stream [l]. Buffers are
    allocated per call, so concurrent calls share nothing. *)
let hamming_weight_lanes circuit ~noise_sigma =
  let n = Circuit.node_count circuit in
  let energy i = Gate.switch_energy (Circuit.kind circuit i) in
  let weights = ref [] in
  for i = 0 to n - 1 do
    let w = energy i in
    if w <> 0.0 && not (List.mem w !weights) then weights := !weights @ [ w ]
  done;
  let weights = Array.of_list !weights in
  let nodes = List.init n Fun.id in
  let members =
    Array.map (fun w -> Array.of_list (List.filter (fun i -> energy i = w) nodes)) weights
  in
  (* a class count is at most n, so planes [0, bits) never overflow; at
     least 4 planes hold a flushed 4-bit partial count *)
  let rec width b = if 1 lsl b > n then b else width (b + 1) in
  let bits = width 4 in
  fun streams inputs ->
    let lanes = Array.length streams in
    if lanes < 1 || lanes > 63 then invalid_arg "Power.Model.hamming_weight_lanes: 1 to 63 lanes";
    let mask = if lanes = 63 then -1 else (1 lsl lanes) - 1 in
    let values = Array.make n 0 in
    Netlist.Sim.eval_all_word_into circuit inputs ~into:values;
    let planes = Array.make (Array.length weights * bits) 0 in
    Array.iteri
      (fun k ids ->
        let base = k * bits in
        let m = Array.length ids in
        let lo = ref 0 in
        while !lo < m do
          (* up to 15 nodes into a branch-free 4-plane partial count ... *)
          let hi = min m (!lo + 15) in
          let c0 = ref 0 and c1 = ref 0 and c2 = ref 0 and c3 = ref 0 in
          for j = !lo to hi - 1 do
            let x = values.(ids.(j)) land mask in
            let y = !c0 land x in
            c0 := !c0 lxor x;
            let x = !c1 land y in
            c1 := !c1 lxor y;
            let y = !c2 land x in
            c2 := !c2 lxor x;
            c3 := !c3 lxor y
          done;
          (* ... then ripple-add the partial count into the class planes *)
          let carry = ref 0 and p = ref 0 in
          while !p < 4 || !carry <> 0 do
            let a = planes.(base + !p) in
            let b = match !p with 0 -> !c0 | 1 -> !c1 | 2 -> !c2 | 3 -> !c3 | _ -> 0 in
            planes.(base + !p) <- a lxor b lxor !carry;
            carry := (a land b) lor (!carry land (a lxor b));
            incr p
          done;
          lo := hi
        done)
      members;
    Array.mapi
      (fun l stream ->
        let e = ref 0.0 in
        Array.iteri
          (fun k w ->
            let count = ref 0 in
            for p = bits - 1 downto 0 do
              count := (!count lsl 1) lor ((planes.((k * bits) + p) lsr l) land 1)
            done;
            e := !e +. (w *. Float.of_int !count))
          weights;
        !e +. Eda_util.Rng.gaussian_scaled stream ~mean:0.0 ~sigma:noise_sigma)
      streams

(** Static leakage-current proxy per gate (IDDQ model): each cell draws a
    nominal quiescent current depending on its input state; Trojans add
    extra cells and thus extra leakage. The [temperature_factor] models
    environmental spread between measurements. *)
let iddq_sample rng ?scratch circuit ~inputs ~noise_sigma ~temperature_factor =
  let values = value_buffer ?scratch circuit in
  Netlist.Sim.eval_all_into circuit inputs ~into:values;
  let total = ref 0.0 in
  for i = 0 to Circuit.node_count circuit - 1 do
    let base = 0.1 *. Gate.area (Circuit.kind circuit i) in
    (* Input-state dependence: a conducting stack leaks slightly more. *)
    let state_factor = if values.(i) then 1.1 else 0.9 in
    total := !total +. (base *. state_factor)
  done;
  (!total *. temperature_factor)
  +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:noise_sigma
