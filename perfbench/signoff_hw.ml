(** [signoff_hw]: the ROADMAP's headline recipe. Each job parses a
    netlist and runs [secure_synthesis] (mask insertion, fenced
    re-optimization, the zero-delay Hamming-weight TVLA gate); a second
    job verifies the masked design against its unmasked reference with
    {!Sidechannel.Secure_synth.verify}. Rounds repeat the four designs
    with fresh mask and campaign seeds. [synth], [power] and
    [sidechannel] carry the time; [sat] and [timing] are absent. *)

module Tvla = Sidechannel.Tvla
module Secure_synth = Sidechannel.Secure_synth

type design = {
  name : string;
  text : string;
  shares : int;
  style : string;
  reference_leaks : bool;
      (** the unmasked reference must be convicted; the bare AES S-box
          is not asserted (|t| is about 3.5 at 1500 traces per class) *)
}

let traces_per_class = 3000
let noise_sigma = 0.8

let designs () =
  let mk name c shares style reference_leaks =
    { name; text = Netlist.Io.to_string c; shares; style; reference_leaks }
  in
  [ mk "aes_round" (Crypto.Sbox_circuit.aes_round_datapath ()) 2 "isw" true;
    mk "c880_500"
      (Netlist.Bench_gen.sized ~seed:Meter.design_seed Netlist.Bench_gen.C880 ~target_gates:500)
      2 "isw" true;
    mk "present_round" (Crypto.Sbox_circuit.present_round_datapath ()) 3 "dom" true;
    mk "aes_sbox" (Crypto.Sbox_circuit.aes_sbox ()) 2 "dom" false ]

let signoff l ~seed ~round i d =
  let result = ref None in
  Ledger.job l ~kind:"signoff" ~design:d.name ~round (fun () ->
      let params =
        [ ("shares", string_of_int d.shares);
          ("style", d.style);
          ("seed", string_of_int (Meter.derive seed ((100 * round) + i)));
          ("noise_sigma", string_of_float noise_sigma) ]
      in
      let c = Workload.parse d.text in
      match Synth.Pipeline.run_recipe ~params "secure_synthesis" c with
      | masked ->
        result := Some (c, masked);
        ( 1,
          [],
          "signed off",
          Netlist.Bench_gen.fingerprint masked,
          [ ("masked_gates", Float.of_int (Workload.gates masked)) ] )
      | exception e ->
        let cls = Workload.failure_class e in
        Ledger.check l false (Printf.sprintf "%s: secure_synthesis rejected the masked design (%s)" d.name cls);
        (1, [ cls ], "rejected", cls, []));
  !result

let verify l ~seed ~round i d (reference, masked) =
  Ledger.job l ~kind:"verify" ~design:d.name ~round (fun () ->
      let rng = Eda_util.Rng.create (Meter.derive seed ((100 * round) + 50 + i)) in
      let v = Secure_synth.verify rng ~reference masked ~traces_per_class ~noise_sigma in
      let masked_leaks = Tvla.leaks v.Secure_synth.masked_result in
      let reference_leaks = Tvla.leaks v.Secure_synth.unmasked_result in
      Ledger.check l (Netlist.Lint.errors masked = []) (d.name ^ ": masked design is not lint-clean");
      Ledger.check l (not masked_leaks) (d.name ^ ": masked design leaks");
      Ledger.check l ((not d.reference_leaks) || reference_leaks)
        (d.name ^ ": unmasked reference not convicted");
      let traces = 2 * traces_per_class in
      ( 1,
        [],
        Printf.sprintf "masked %b, reference %s" masked_leaks
          (if d.reference_leaks then string_of_bool reference_leaks else "not asserted"),
        String.concat " "
          (List.map Meter.exact
             [ v.Secure_synth.masked_result.Tvla.max_abs_t; v.Secure_synth.unmasked_result.Tvla.max_abs_t ]),
        [ ("traces", Float.of_int (2 * traces));
          ("gate_traces", Float.of_int (traces * (Workload.gates masked + Workload.gates reference))) ] ))

let setup ~seed ~rounds =
  Sidechannel.Secure_synth.register ();
  let designs = designs () in
  fun ~probe:_ l ->
    for round = 0 to rounds - 1 do
      List.iteri
        (fun i d -> Option.iter (verify l ~seed ~round i d) (signoff l ~seed ~round i d))
        designs
    done

let workload =
  { Workload.name = "signoff_hw";
    round_s = 4.0;
    setup;
    throughput = (fun l -> Ledger.rate l ~kinds:[ "verify" ] "traces");
    named =
      (fun l ->
        [ ("signoff_s", Ledger.mean_cpu l "signoff", "s");
          ("hw_traces_per_s", Ledger.rate l ~kinds:[ "verify" ] "traces", "1/s") ]) }
