(** [flow_attack]: the Fig. 1 flow, ATPG on full fault lists including
    the hard residue, and oracle-guided SAT attacks on EPIC-locked
    designs. [sat] is used two ways: ATPG sends many small incremental
    session queries, the attack a few large growing ones. [physical] and
    [core] run inside the flows; [power] and TVLA are absent. *)

module B = Netlist.Bench_gen
module Rng = Eda_util.Rng
module Budget = Eda_util.Budget
module Atpg = Dft.Atpg
module Flow = Secure_eda.Flow
module Sat_attack = Locking.Sat_attack

type atpg_case = { a_name : string; a_text : string; steps : int option }

type attack_case = {
  k_name : string;
  locked_text : string;
  original_text : string;
  correct_key : bool array;
  attack_steps : int option;
}

let flow l ~seed ~round ~run (name, text) =
  Ledger.job l ~kind:"flow" ~design:(Printf.sprintf "%s_run%d" name run) ~round (fun () ->
      let c = Workload.parse text in
      match Flow.run (Rng.create (Meter.derive seed ((100 * round) + 40 + run))) c with
      | Ok r ->
        let stages = r.Flow.stages in
        Ledger.check l (List.length stages = 4) (name ^ ": flow did not report four stages");
        let failures =
          List.filter_map
            (fun s -> Option.map (fun _ -> "degraded " ^ Flow.stage_name s.Flow.stage) s.Flow.degraded)
            stages
        in
        let fingerprint =
          String.concat ";"
            (List.map
               (fun s ->
                 Printf.sprintf "%s %s %s %s %s" (Meter.exact s.Flow.area) (Meter.exact s.Flow.delay_ps)
                   (Option.fold ~none:"-" ~some:string_of_int s.Flow.wirelength)
                   (Option.fold ~none:"-" ~some:Meter.exact s.Flow.fault_coverage)
                   (Option.value s.Flow.degraded ~default:"ok"))
               stages)
        in
        (4, failures, String.concat "," (List.sort_uniq compare failures), fingerprint, [])
      | Error e ->
        let cls = Eda_util.Eda_error.to_string e in
        Ledger.check l false (name ^ ": flow rejected a lint-clean design: " ^ cls);
        (4, List.init 4 (fun _ -> cls), "error", cls, []))

(* Every pattern must detect at least one fault of the list, re-checked
   by word-parallel fault simulation outside the engine. *)
let patterns_detect c patterns =
  let faults = Array.of_list (Fault.Model.all_stuck_at_faults c) in
  let w = Fault.Model.wsim_create c in
  let n = Array.length faults in
  List.for_all
    (fun p ->
      let rec any i =
        i < n
        &&
        let batch = Array.sub faults i (min 63 (n - i)) in
        Fault.Model.detects_many w c ~faults:batch p <> 0 || any (i + 63)
      in
      any 0)
    patterns

let atpg l ~round a =
  let outcome = ref None in
  Ledger.job l ~kind:"atpg" ~design:a.a_name ~round (fun () ->
      let c = Workload.parse a.a_text in
      let budget = Option.map (fun steps -> Budget.create ~steps ()) a.steps in
      let r = Atpg.run ?budget c in
      outcome := Some (c, r);
      let classified = r.Atpg.faults_total - r.Atpg.faults_remaining in
      ( r.Atpg.faults_total,
        List.init r.Atpg.faults_remaining (fun _ -> "fault left unprocessed"),
        (if r.Atpg.faults_remaining = 0 then "complete" else "residue left"),
        Printf.sprintf "%s %d %d %d %d" (Meter.exact r.Atpg.coverage) r.Atpg.faults_remaining
          (List.length r.Atpg.patterns) (List.length r.Atpg.untestable)
          r.Atpg.solver_stats.Sat.Solver.conflicts,
        [ ("faults", Float.of_int r.Atpg.faults_total);
          ("classified", Float.of_int classified);
          ("detected", Float.of_int (classified - List.length r.Atpg.untestable));
          ("faults_remaining", Float.of_int r.Atpg.faults_remaining);
          ("reported_conflicts", Float.of_int r.Atpg.solver_stats.Sat.Solver.conflicts) ] ));
  Option.iter
    (fun (c, r) ->
      Ledger.check l (patterns_detect c r.Atpg.patterns)
        (a.a_name ^ ": an ATPG pattern detects no listed fault"))
    !outcome

let locked_of_text text correct_key =
  let circuit = Netlist.Io.of_string text in
  let ins = Netlist.Circuit.inputs circuit in
  let kb = Array.length correct_key in
  { Locking.Lock.circuit;
    key_inputs = Array.sub ins 0 kb;
    data_inputs = Array.sub ins kb (Array.length ins - kb);
    correct_key }

let attack l ~round k =
  let outcome = ref None in
  Ledger.job l ~kind:"attack" ~design:k.k_name ~round (fun () ->
      let locked =
        Eda_util.Telemetry.with_span "bench.parse" (fun () -> locked_of_text k.locked_text k.correct_key)
      in
      let original = Workload.parse k.original_text in
      let budget = Option.map (fun steps -> Budget.create ~steps ()) k.attack_steps in
      let r = Sat_attack.run ?budget ~oracle:(Sat_attack.oracle_of_circuit original) locked in
      outcome := Some (locked, original, r);
      let status = Sat_attack.describe_status r.Sat_attack.status in
      let converged = r.Sat_attack.status = Sat_attack.Converged in
      ( 1,
        (if converged then [] else [ status ]),
        status,
        Printf.sprintf "%s %d %d %s" status r.Sat_attack.iterations
          r.Sat_attack.solver_stats.Sat.Solver.conflicts
          (match r.Sat_attack.key with
           | Some key -> String.init (Array.length key) (fun i -> if key.(i) then '1' else '0')
           | None -> "-"),
        [ ("dips", Float.of_int r.Sat_attack.iterations) ] ));
  Option.iter
    (fun (locked, original, r) ->
      if r.Sat_attack.status = Sat_attack.Converged then
        Ledger.check l (Sat_attack.recovered_key_correct locked ~original r)
          (k.k_name ^ ": converged attack returned a wrong key"))
    !outcome

let setup ~seed ~rounds =
  let text = Netlist.Io.to_string in
  let sized family target = B.sized ~seed:Meter.design_seed family ~target_gates:target in
  let flows =
    List.map
      (fun (name, family) -> (name, text (sized family 1000)))
      [ ("c880_1k", B.C880); ("c432_1k", B.C432); ("csa_mult_1k", B.Csa_mult) ]
  in
  let atpgs =
    List.map
      (fun (a_name, family, target, steps) -> { a_name; a_text = text (sized family target); steps })
      [ ("c432_1k", B.C432, 1500, None);
        ("c880_3k", B.C880, 3400, None);
        ("csa_mult_1k", B.Csa_mult, 1000, None);
        ("layered_500", B.Layered, 500, Some 5000);
        ("c6288_1k", B.C6288, 1000, Some 2000) ]
  in
  (* The two large attacks use fixed keys: on ~1k-gate designs an
     attack's CPU varies 2x with the key, more than a run can average.
     The small ones draw their keys from the workload seed. *)
  let fixed = Meter.design_seed in
  let attacks =
    List.map
      (fun (k_name, c, lock_seed, key_bits, attack_steps) ->
        let locked = Locking.Lock.epic (Rng.create lock_seed) ~key_bits c in
        { k_name;
          locked_text = text locked.Locking.Lock.circuit;
          original_text = text c;
          correct_key = locked.Locking.Lock.correct_key;
          attack_steps })
      [ ("aes_round_k32", Crypto.Sbox_circuit.aes_round_datapath (), Meter.derive seed 60, 32, None);
        ("c432_1k_k32", sized B.C432 1500, Meter.derive fixed 61, 32, None);
        ("c880_1k_k24", sized B.C880 1000, Meter.derive fixed 62, 24, None);
        ("csa_mult_500_k32", sized B.Csa_mult 500, Meter.derive seed 63, 32, Some 3000) ]
  in
  fun ~probe:_ l ->
    for round = 0 to rounds - 1 do
      for run = 0 to 1 do
        List.iter (flow l ~seed ~round ~run) flows
      done;
      List.iter (atpg l ~round) atpgs;
      List.iter (attack l ~round) attacks
    done

let atpg_faults_per_s l = Ledger.rate l ~kinds:[ "atpg" ] "classified"

let atpg_coverage l =
  let js = Ledger.of_kind l "atpg" in
  let total = Ledger.sum (fun j -> Ledger.stat j "faults") js in
  if total > 0.0 then Ledger.sum (fun j -> Ledger.stat j "detected") js /. total else 0.0

let workload =
  { Workload.name = "flow_attack";
    round_s = 16.0;
    setup;
    throughput = atpg_faults_per_s;
    named =
      (fun l ->
        [ ("flow_s", Ledger.mean_cpu l "flow", "s");
          ("atpg_faults_per_s", atpg_faults_per_s l, "1/s");
          ("atpg_coverage", atpg_coverage l, "ratio");
          ("sat_attack_s", Ledger.mean_cpu l "attack", "s") ]) }
