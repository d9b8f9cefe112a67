(** Synthesis entry points and the PPA cost model (Fig. 1's
    logic-synthesis stage).

    [optimize] and [optimize_secure] are thin wrappers over the
    data-described recipes of the same names (see {!Pipeline}); they
    exist for callers that want the canonical flows without touching the
    pass manager, and they produce bit-identical circuits to the
    historical hardcoded sequences (the differential test in
    [test_synth.ml] holds them to that). *)

module Circuit = Netlist.Circuit

type ppa = { area : float; delay_ps : float; gate_count : int; power_proxy : float }

(** Static PPA estimate: area from cell areas, delay from STA, power proxy
    from summed switching energies weighted by 0.5 toggle probability. *)
let ppa c =
  let st = Circuit.stats c in
  let timing = Timing.Sta.analyze c in
  let power_proxy = ref 0.0 in
  for i = 0 to Circuit.node_count c - 1 do
    power_proxy := !power_proxy +. (0.5 *. Netlist.Gate.switch_energy (Circuit.kind c i))
  done;
  { area = st.Circuit.area;
    delay_ps = timing.Timing.Sta.critical_path_delay;
    gate_count = st.Circuit.gates;
    power_proxy = !power_proxy }

module T = Eda_util.Telemetry

let optimize ?(reassoc = true) c =
  T.with_span "synth.optimize" @@ fun () ->
  Pipeline.run ~params:[ ("reassoc", string_of_bool reassoc) ] (Pipeline.get "optimize") c

(** Security-aware variant: [protect] marks nodes whose structure is a
    security property (mask-accumulation chains, locked logic, sensors).
    The recipe always fences the standard gadget prefixes
    ([dom_]/[mg_]) in addition to [protect]. *)
let optimize_secure ?protect c =
  T.with_span "synth.optimize_secure" @@ fun () ->
  Pipeline.run ?protect (Pipeline.get "optimize_secure") c
