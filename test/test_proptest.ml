(* Property-based suite: the Proptest harness's own contract (replay,
   shrinking, bounds), arithmetic oracles for the reference generators,
   seed determinism and lint cleanliness of every Bench_gen family, and
   differential checks of the hot engines against their reference
   implementations — including pooled-vs-sequential bit-identity at
   1/2/8 domains.

   Every check goes through Proptest.check_exn, so a failure prints a
   shrunk counterexample with its PROPTEST_SEED replay line; CI greps
   for that marker. The seed comes from PROPTEST_SEED when set (CI pins
   it), else the library default. *)

module P = Eda_util.Proptest
module Rng = Eda_util.Rng
module Pool = Eda_util.Pool
module Gen = Netlist.Generators
module BG = Netlist.Bench_gen
module Circuit = Netlist.Circuit
module Sim = Netlist.Sim
module Lint = Netlist.Lint

(* --- the harness itself ------------------------------------------------- *)

let test_passes () =
  match P.check ~name:"tautology" (P.int_range 0 100) (fun n -> n >= 0) with
  | P.Passed n -> Alcotest.(check int) "all cases ran" 100 n
  | P.Failed f -> Alcotest.fail (P.describe_failure f)

let test_replay_deterministic () =
  let run () =
    P.check ~seed:77 ~name:"threshold" (P.int_range 0 10_000) (fun n -> n < 500)
  in
  match (run (), run ()) with
  | P.Failed a, P.Failed b ->
    Alcotest.(check int) "same failing case" a.P.case_index b.P.case_index;
    Alcotest.(check string) "same original" a.P.original b.P.original;
    Alcotest.(check string) "same minimal" a.P.minimal b.P.minimal
  | _ -> Alcotest.fail "property should fail on both runs"

let test_shrinks_to_boundary () =
  (* n < 500 fails first at some random n >= 500; the binary ladder must
     land exactly on the boundary value 500. *)
  match P.check ~seed:77 ~name:"threshold" (P.int_range 0 10_000) (fun n -> n < 500) with
  | P.Failed f -> Alcotest.(check string) "minimal counterexample" "500" f.P.minimal
  | P.Passed _ -> Alcotest.fail "property should fail"

let test_shrink_budget_respected () =
  let bound = 7 in
  match
    P.check ~seed:1 ~max_shrink_steps:bound ~name:"always-false"
      (P.int_range 0 1_000_000) (fun _ -> false)
  with
  | P.Failed f ->
    Alcotest.(check bool) "bounded" true (f.P.shrink_steps <= bound)
  | P.Passed _ -> Alcotest.fail "property should fail"

let test_pair_shrinks_componentwise () =
  (* Failure depends only on the first component; the second must shrink
     all the way to its minimum. *)
  match
    P.check ~seed:5 ~name:"pair"
      (P.pair (P.int_range 0 1000) (P.int_range 0 1000))
      (fun (x, _) -> x < 100)
  with
  | P.Failed f ->
    Alcotest.(check string) "minimal pair" "(100, 0)" f.P.minimal
  | P.Passed _ -> Alcotest.fail "property should fail"

let test_list_min_len_kept () =
  match
    P.check ~seed:9 ~name:"list"
      (P.list_of ~min_len:2 ~max_len:10 (P.int_range 0 9))
      (fun l -> List.length l < 2)
  with
  | P.Failed f ->
    (* every list has >= 2 elements, so the property always fails; the
       shrunk list must still respect min_len *)
    Alcotest.(check string) "minimal list" "[0; 0]" f.P.minimal
  | P.Passed _ -> Alcotest.fail "property should fail"

let test_failure_report_replayable () =
  match P.check ~seed:123 ~name:"demo" (P.int_range 0 99) (fun n -> n < 50) with
  | P.Failed f ->
    let text = P.describe_failure f in
    let contains sub =
      let n = String.length text and m = String.length sub in
      let rec at i = i + m <= n && (String.sub text i m = sub || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "names the shrunk counterexample" true
      (contains "shrunk counterexample");
    Alcotest.(check bool) "carries the replay seed" true (contains "PROPTEST_SEED=123")
  | P.Passed _ -> Alcotest.fail "property should fail"

(* --- arithmetic oracles for the reference generators --------------------- *)

let bits_of_int ~width v = Array.init width (fun i -> (v lsr i) land 1 = 1)
let int_of_bits bits = Array.to_list bits |> List.fold_left (fun _ _ -> 0) 0 |> ignore

let () = ignore int_of_bits

let eval_outputs c inputs = Sim.eval c inputs

let test_ripple_adder_oracle () =
  let arb =
    P.make
      ~show:(fun (w, a, b, cin) -> Printf.sprintf "w=%d a=%d b=%d cin=%b" w a b cin)
      (fun rng ->
        let w = 1 + Rng.int rng 16 in
        let a = Rng.int rng (1 lsl w) in
        let b = Rng.int rng (1 lsl w) in
        (w, a, b, Rng.bool rng))
  in
  P.check_exn ~name:"ripple_adder matches integer addition" arb
    (fun (w, a, b, cin) ->
      let c = Gen.ripple_adder w in
      let inputs =
        Array.concat
          [ bits_of_int ~width:w a; bits_of_int ~width:w b; [| cin |] ]
      in
      let outs = eval_outputs c inputs in
      (* outputs: s0..s(w-1), cout *)
      let got =
        Array.to_seq outs
        |> Seq.fold_lefti (fun acc i bit -> if bit then acc lor (1 lsl i) else acc) 0
      in
      got = a + b + Bool.to_int cin)

let test_comparator_oracle () =
  let arb =
    P.make
      ~show:(fun (w, a, b) -> Printf.sprintf "w=%d a=%d b=%d" w a b)
      (fun rng ->
        let w = 1 + Rng.int rng 16 in
        let a = Rng.int rng (1 lsl w) in
        (* force equality half the time so both branches are exercised *)
        let b = if Rng.bool rng then a else Rng.int rng (1 lsl w) in
        (w, a, b))
  in
  P.check_exn ~name:"comparator matches integer equality" arb (fun (w, a, b) ->
      let c = Gen.comparator w in
      let inputs = Array.append (bits_of_int ~width:w a) (bits_of_int ~width:w b) in
      (eval_outputs c inputs).(0) = (a = b))

let test_parity_tree_oracle () =
  let arb =
    P.make
      ~show:(fun bits ->
        "0b" ^ String.concat "" (List.map (fun b -> if b then "1" else "0") bits))
      (fun rng ->
        let w = 1 + Rng.int rng 24 in
        List.init w (fun _ -> Rng.bool rng))
  in
  P.check_exn ~name:"parity_tree matches xor fold" arb (fun bits ->
      let c = Gen.parity_tree (List.length bits) in
      let expect = List.fold_left (fun acc b -> acc <> b) false bits in
      (eval_outputs c (Array.of_list bits)).(0) = expect)

(* --- Bench_gen: determinism and lint cleanliness ------------------------- *)

let family_arb =
  P.choose_from ~show:BG.family_name BG.all_families

let test_generators_seed_deterministic () =
  let arb =
    P.pair family_arb
      (P.pair (P.int_range 0 1_000_000) (P.int_range 64 800))
  in
  let show (fam, (seed, tgt)) =
    Printf.sprintf "%s seed=%d target=%d" (BG.family_name fam) seed tgt
  in
  P.check_exn ~count:40 ~name:"same seed, same fingerprint"
    { arb with P.show } (fun (fam, (seed, tgt)) ->
      let fp () = BG.fingerprint (BG.sized ~seed fam ~target_gates:tgt) in
      fp () = fp ())

let test_generators_lint_clean () =
  let arb =
    P.pair family_arb
      (P.pair (P.int_range 0 1_000_000) (P.int_range 64 800))
  in
  let show (fam, (seed, tgt)) =
    Printf.sprintf "%s seed=%d target=%d" (BG.family_name fam) seed tgt
  in
  P.check_exn ~count:40 ~name:"generated circuits lint clean"
    { arb with P.show } (fun (fam, (seed, tgt)) ->
      let c = BG.sized ~seed fam ~target_gates:tgt in
      let issues = Lint.check c in
      List.for_all
        (fun i -> i.Lint.severity <> Lint.Error && i.Lint.check <> "dangling-net")
        issues)

let test_layered_params_lint_clean () =
  (* the raw layered entry point across its whole parameter space, not
     just the sized presets *)
  let arb =
    P.make
      ~show:(fun (seed, ins, layers, width, loc) ->
        Printf.sprintf "seed=%d inputs=%d layers=%d width=%d locality=%.2f"
          seed ins layers width loc)
      (fun rng ->
        ( Rng.int rng 100_000,
          1 + Rng.int rng 32,
          1 + Rng.int rng 12,
          1 + Rng.int rng 64,
          Rng.float rng ))
  in
  P.check_exn ~count:40 ~name:"layered lint clean at any params" arb
    (fun (seed, inputs, layers, width, locality) ->
      let c = BG.layered ~seed ~locality ~inputs ~layers ~width () in
      let issues = Lint.check c in
      List.for_all
        (fun i -> i.Lint.severity <> Lint.Error && i.Lint.check <> "dangling-net")
        issues)

let test_sized_hits_target () =
  let arb =
    P.pair family_arb (P.pair (P.int_range 0 1000) (P.int_range 400 4000))
  in
  let show (fam, (seed, tgt)) =
    Printf.sprintf "%s seed=%d target=%d" (BG.family_name fam) seed tgt
  in
  P.check_exn ~count:25 ~name:"sized lands within 40% of target"
    { arb with P.show } (fun (fam, (seed, tgt)) ->
      let n = Circuit.node_count (BG.sized ~seed fam ~target_gates:tgt) in
      let ratio = Float.of_int n /. Float.of_int tgt in
      ratio > 0.6 && ratio < 1.4)

let test_multiplier_families_agree () =
  (* c6288_like (array grid) and csa_multiplier (Wallace tree) compute
     the same product *)
  let arb =
    P.make
      ~show:(fun (w, a, b) -> Printf.sprintf "w=%d a=%d b=%d" w a b)
      (fun rng ->
        let w = 2 + Rng.int rng 5 in
        (w, Rng.int rng (1 lsl w), Rng.int rng (1 lsl w)))
  in
  P.check_exn ~count:60 ~name:"array and CSA multipliers agree" arb
    (fun (w, a, b) ->
      let inputs = Array.append (bits_of_int ~width:w a) (bits_of_int ~width:w b) in
      let product c =
        let outs = Circuit.outputs c in
        let vals = Sim.eval c inputs in
        (* sum named product bits m<i>; skip po_obs-style extras *)
        Array.to_seq outs
        |> Seq.fold_lefti
             (fun acc k (name, _) ->
               if String.length name > 1 && name.[0] = 'm' then
                 match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
                 | Some i when vals.(k) -> acc + (1 lsl i)
                 | _ -> acc
               else acc)
             0
      in
      let pa = product (BG.c6288_like ~width:w ()) in
      let pc = product (BG.csa_multiplier ~width:w ()) in
      pa = a * b && pc = a * b)

(* --- differential: hot engines vs references ----------------------------- *)

let cnf_arb =
  P.make
    ~show:(fun (nvars, clauses) ->
      Printf.sprintf "%d vars, %d clauses" nvars (List.length clauses))
    (fun rng ->
      let nvars = 3 + Rng.int rng 25 in
      let nclauses = 2 + Rng.int rng (4 * nvars) in
      let clause () =
        let len = 1 + Rng.int rng 3 in
        List.init len (fun _ -> (Rng.int rng nvars, Rng.bool rng))
      in
      (nvars, List.init nclauses (fun _ -> clause ())))

let test_sat_differential () =
  P.check_exn ~count:120 ~name:"arrays solver agrees with reference CDCL"
    cnf_arb (fun (nvars, clauses) ->
      let open Sat in
      let satisfies model =
        List.for_all
          (List.exists (fun (v, sign) -> model v = sign))
          clauses
      in
      (* add_clause may raise Unsat_root on a level-0 conflict — that is
         a documented Unsat verdict, not an error *)
      let run_new () =
        let s = Solver.create () in
        ignore (Solver.new_vars s nvars);
        match
          List.iter
            (fun cl ->
              Solver.add_clause s
                (List.map (fun (v, sign) -> Solver.lit_of_var v ~sign) cl))
            clauses
        with
        | () ->
          (match Solver.solve s with
           | Solver.Sat -> `Sat (Solver.model_value s)
           | Solver.Unsat -> `Unsat
           | Solver.Unknown _ -> `Unknown)
        | exception Solver.Unsat_root -> `Unsat
      in
      let run_ref () =
        let sref = Solver_ref.create () in
        match
          List.iter
            (fun cl ->
              Solver_ref.add_clause sref
                (List.map (fun (v, sign) -> Solver_ref.lit_of_var v ~sign) cl))
            clauses
        with
        | () ->
          (match Solver_ref.solve sref with
           | Solver_ref.Sat -> `Sat (Solver_ref.model_value sref)
           | Solver_ref.Unsat -> `Unsat
           | Solver_ref.Unknown _ -> `Unknown)
        | exception Solver_ref.Unsat_root -> `Unsat
      in
      match (run_new (), run_ref ()) with
      | `Sat m, `Sat mref -> satisfies m && satisfies mref
      | `Unsat, `Unsat -> true
      | _ -> false)

let test_word_sim_differential () =
  (* 63 patterns per case: lane j of the word simulation must equal the
     boolean simulation of pattern j, on a fresh random circuit. *)
  let arb =
    P.make
      ~show:(fun (seed, pat_seed) -> Printf.sprintf "seed=%d patterns=%d" seed pat_seed)
      (fun rng -> (Rng.int rng 1_000_000, Rng.int rng 1_000_000))
  in
  P.check_exn ~count:25 ~name:"word-parallel sim matches naive eval" arb
    (fun (seed, pat_seed) ->
      let c = BG.layered ~seed ~inputs:12 ~layers:4 ~width:24 () in
      let ni = Circuit.num_inputs c in
      let rng = Rng.create pat_seed in
      let words = Array.init ni (fun _ -> Rng.bits63 rng) in
      let word_out = Sim.eval_word c words in
      let ok = ref true in
      for lane = 0 to 62 do
        let bools = Array.map (fun w -> (w lsr lane) land 1 = 1) words in
        let bool_out = Sim.eval c bools in
        Array.iteri
          (fun k w ->
            if ((w lsr lane) land 1 = 1) <> bool_out.(k) then ok := false)
          word_out
      done;
      !ok)

(* Every Gate.kind: inputs, both constants, a DFF, a MUX and each
   one- and two-input cell. *)
let every_kind_circuit () =
  let module G = Netlist.Gate in
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let s = Circuit.add_input ~name:"s" c in
  let one = Circuit.add_const c true and zero = Circuit.add_const c false in
  let g k fanins = Circuit.add_gate c k fanins in
  let buf = g G.Buf [ a ] and inv = g G.Not [ b ] in
  let cells =
    List.map (fun k -> g k [ buf; inv ]) [ G.And; G.Nand; G.Or; G.Nor; G.Xor; G.Xnor ]
  in
  let mux = g G.Mux [ s; g G.And [ a; one ]; g G.Or [ b; zero ] ] in
  let q = Circuit.add_dff c ~d:mux in
  let y = List.fold_left (fun acc n -> g G.Xor [ acc; n ]) (g G.Nand [ q; mux ]) cells in
  Circuit.set_output c "y" y;
  c

let test_hw_lanes_differential () =
  (* At sigma 0, lane l of the bit-sliced Hamming-weight sampler must
     equal the scalar sample on lane l's vector, up to summation order.
     Input bits above the lane count are random and must be ignored. *)
  let arb = P.make ~show:(Printf.sprintf "pattern seed=%d") (fun rng -> Rng.int rng 1_000_000) in
  List.iter
    (fun (name, c) ->
      let sample = Power.Model.hamming_weight_lanes c ~noise_sigma:0.0 in
      let ni = Circuit.num_inputs c in
      P.check_exn ~count:8 ~name:("lane HW sampler matches scalar HW on " ^ name) arb
        (fun seed ->
          List.for_all
            (fun lanes ->
              let rng = Rng.create seed in
              let words = Array.init ni (fun _ -> Rng.bits63 rng) in
              let energies = sample (Rng.split rng lanes) words in
              Array.length energies = lanes
              && List.for_all
                   (fun l ->
                     let vec = Array.map (fun w -> (w lsr l) land 1 = 1) words in
                     let e = Power.Model.hamming_weight_sample rng c ~noise_sigma:0.0 ~inputs:vec in
                     Float.abs (energies.(l) -. e) <= 1e-9 *. Float.abs e)
                   (List.init lanes Fun.id))
            [ 1; 17; 32 ]))
    [ ("every gate kind", every_kind_circuit ());
      ("Layered", BG.sized ~seed:41 BG.Layered ~target_gates:300);
      ("C880", BG.sized ~seed:42 BG.C880 ~target_gates:300) ]

let test_session_vs_fresh () =
  (* One persistent Stuck_at_session must answer every query exactly like a
     throwaway check_stuck_at solver: same Equivalent/Counterexample status,
     and any session witness must actually detect the fault. *)
  let arb =
    P.make
      ~show:(fun (seed, fseed) -> Printf.sprintf "circuit=%d faults=%d" seed fseed)
      (fun rng -> (Rng.int rng 1_000_000, Rng.int rng 1_000_000))
  in
  P.check_exn ~count:20 ~name:"incremental session matches fresh check_stuck_at" arb
    (fun (seed, fseed) ->
      let c = BG.layered ~seed ~inputs:8 ~layers:4 ~width:12 () in
      let faults = Array.of_list (Fault.Model.all_stuck_at_faults c) in
      Rng.shuffle (Rng.create fseed) faults;
      let n = min 25 (Array.length faults) in
      let session = Sat.Cnf.Stuck_at_session.create c in
      let ok = ref true in
      for i = 0 to n - 1 do
        match faults.(i) with
        | Fault.Model.Bit_flip _ -> ()
        | Fault.Model.Stuck_at { node; value } as f ->
          let fresh = Sat.Cnf.check_stuck_at c ~node ~value in
          let inc = Sat.Cnf.Stuck_at_session.query session ~node ~value in
          (match (fresh, inc) with
           | Sat.Cnf.Equivalent, Sat.Cnf.Equivalent -> ()
           | Sat.Cnf.Counterexample _, Sat.Cnf.Counterexample w ->
             (* The witness pattern may legitimately differ between the two
                solvers, but it must detect the fault either way. *)
             if not (Fault.Model.detects c ~fault:f w) then ok := false
           | _ -> ok := false)
      done;
      !ok)

let test_session_budget_resume () =
  (* A zero-step budget forces Equiv_unknown on every query whose solve
     needs at least one conflict. The session must survive the abandoned
     query: an unbudgeted retry of the same fault — and every later query —
     must still match a fresh solver. *)
  let c = BG.layered ~seed:47 ~inputs:8 ~layers:5 ~width:14 () in
  let faults = Array.of_list (Fault.Model.all_stuck_at_faults c) in
  Rng.shuffle (Rng.create 48) faults;
  let session = Sat.Cnf.Stuck_at_session.create c in
  let checked = ref 0 and unknowns = ref 0 in
  Array.iter
    (fun f ->
      if !checked < 12 then
        match f with
        | Fault.Model.Bit_flip _ -> ()
        | Fault.Model.Stuck_at { node; value } ->
          incr checked;
          let b = Eda_util.Budget.create ~steps:0 () in
          (match Sat.Cnf.Stuck_at_session.query ~budget:b session ~node ~value with
           | Sat.Cnf.Equiv_unknown _ -> incr unknowns
           | Sat.Cnf.Equivalent | Sat.Cnf.Counterexample _ -> ());
          let retry = Sat.Cnf.Stuck_at_session.query session ~node ~value in
          (match (Sat.Cnf.check_stuck_at c ~node ~value, retry) with
           | Sat.Cnf.Equivalent, Sat.Cnf.Equivalent -> ()
           | Sat.Cnf.Counterexample _, Sat.Cnf.Counterexample w ->
             Alcotest.(check bool) "retry witness detects" true
               (Fault.Model.detects c ~fault:f w)
           | _ -> Alcotest.fail "post-Unknown session answer diverged from fresh"))
    faults;
  Alcotest.(check bool) "at least one query hit the budget" true (!unknowns > 0)

let test_detects_many_differential () =
  (* Lane k of the word-parallel fault simulation must agree with the
     scalar [detects] oracle, and reusing the scratch must not leak state
     between calls. *)
  let arb =
    P.make
      ~show:(fun (seed, pseed) -> Printf.sprintf "circuit=%d pattern=%d" seed pseed)
      (fun rng -> (Rng.int rng 1_000_000, Rng.int rng 1_000_000))
  in
  P.check_exn ~count:25 ~name:"word-parallel fault drop matches scalar detects" arb
    (fun (seed, pseed) ->
      let c = BG.layered ~seed ~inputs:10 ~layers:4 ~width:16 () in
      let rng = Rng.create pseed in
      let all = Array.of_list (Fault.Model.all_stuck_at_faults c) in
      Rng.shuffle rng all;
      let nf = min 63 (Array.length all) in
      let faults = Array.sub all 0 nf in
      if nf > 2 then
        faults.(1) <- Fault.Model.Bit_flip { node = Fault.Model.node_of faults.(1) };
      let pattern = Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng) in
      let w = Fault.Model.wsim_create c in
      let mask = Fault.Model.detects_many w c ~faults pattern in
      let again = Fault.Model.detects_many w c ~faults pattern in
      let lanes_agree = ref true in
      Array.iteri
        (fun k f ->
          if (mask lsr k) land 1 = 1 <> Fault.Model.detects c ~fault:f pattern then
            lanes_agree := false)
        faults;
      mask = again && !lanes_agree)

(* --- pooled vs sequential bit-identity at 1/2/8 domains ------------------ *)

let domain_counts = [ 1; 2; 8 ]

let with_pools f =
  List.map
    (fun d ->
      if d = 1 then f None
      else Pool.with_pool ~num_domains:d (fun p -> f (Some p)))
    domain_counts

let all_equal = function
  | [] | [ _ ] -> true
  | x :: rest -> List.for_all (( = ) x) rest

let test_atpg_pool_identical () =
  let c = BG.sized ~seed:31 BG.C880 ~target_gates:260 in
  let results =
    with_pools (fun pool ->
        let r = Dft.Atpg.run ?pool c in
        (r.Dft.Atpg.coverage, r.Dft.Atpg.patterns, List.length r.Dft.Atpg.untestable))
  in
  Alcotest.(check bool) "ATPG bit-identical at 1/2/8 domains" true (all_equal results)

let test_tvla_pool_identical () =
  let c = BG.sized ~seed:32 BG.Layered ~target_gates:220 in
  let ni = Circuit.num_inputs c in
  let nodes = Circuit.node_count c in
  let collect stream cls =
    let vec =
      Array.init ni (fun _ ->
          match cls with `Fixed -> true | `Random -> Rng.bool stream)
    in
    let scratch = Array.make nodes false in
    [| Power.Model.hamming_weight_sample stream ~scratch c ~noise_sigma:0.4 ~inputs:vec |]
  in
  let results =
    with_pools (fun pool ->
        let r =
          Sidechannel.Tvla.campaign_seeded ?pool (Rng.create 5150)
            ~traces_per_class:257 ~collect
        in
        (r.Sidechannel.Tvla.t_per_sample, r.Sidechannel.Tvla.max_abs_t))
  in
  Alcotest.(check bool) "TVLA bit-identical at 1/2/8 domains" true (all_equal results);
  (* pinned: a change to the stream split or to the accumulation order
     moves this value even when it moves it equally at every domain count *)
  Alcotest.(check string) "max |t| unchanged" "0x1.e5876d4521538p+3"
    (Printf.sprintf "%h" (snd (List.hd results)))

let test_placement_pool_identical () =
  let c = BG.sized ~seed:33 BG.C432 ~target_gates:220 in
  let results =
    with_pools (fun pool ->
        let o = Physical.Placement.place ~starts:8 ~moves:400 ?pool (Rng.create 2718) c in
        ( Physical.Placement.wirelength o.Physical.Placement.placement,
          o.Physical.Placement.best_start ))
  in
  Alcotest.(check bool) "placement bit-identical at 1/2/8 domains" true
    (all_equal results)

let test_trace_merge_deterministic () =
  (* Canonical merged telemetry must be byte-identical at 1/2/8 domains
     for any deterministic workload: random task counts and payloads,
     deterministic caller/worker clocks. *)
  let module T = Eda_util.Telemetry in
  let fake_clock () =
    let t = ref 0.0 in
    fun () ->
      let v = !t in
      t := v +. 1.0;
      v
  in
  let task_clock i =
    let t = ref (1000.0 *. Float.of_int (i + 1)) in
    fun () ->
      let v = !t in
      t := v +. 1.0;
      v
  in
  let traced_batch ~tasks ~salt d =
    let sink, events = T.memory_sink () in
    T.with_sink ~clock:(fake_clock ()) ~task_clock sink (fun () ->
        Pool.with_pool ~num_domains:d (fun p ->
            ignore
              (Pool.parallel_map p
                 ~f:(fun _ctx i ->
                   T.with_span "task.work" ~attrs:[ ("i", T.Int i) ] (fun () ->
                       T.count "work.done" 1;
                       T.observe "work.cost" (Float.of_int ((i * salt) mod 97)));
                   i)
                 (Array.init tasks (fun i -> i)))));
    String.concat "\n" (List.map T.event_to_line (T.Trace.canonicalize (events ())))
  in
  let arb = P.pair (P.int_range 1 12) (P.int_range 1 1000) in
  P.check_exn ~count:15 ~name:"canonical merged trace identical at 1/2/8 domains" arb
    (fun (tasks, salt) ->
      let base = traced_batch ~tasks ~salt 1 in
      String.length base > 0
      && List.for_all (fun d -> traced_batch ~tasks ~salt d = base) [ 2; 8 ])

let test_pool_chunking_preserves_results () =
  (* scheduling grain must never leak into results *)
  let inputs = Array.init 500 (fun i -> i) in
  let expect = Array.map (fun i -> Some (i * 7)) inputs in
  List.iter
    (fun chunk ->
      Pool.with_pool ~num_domains:4 (fun p ->
          let got = Pool.parallel_map ~chunk p ~f:(fun _ctx x -> x * 7) inputs in
          Alcotest.(check bool)
            (Printf.sprintf "chunk=%d keeps ordered results" chunk)
            true (got = expect)))
    [ 1; 3; 64; 1000 ]

let test_atpg_chunk_invariance () =
  (* The scheduling grain (?chunk) must never leak into ATPG results: any
     grain at 4 domains must reproduce the no-pool run bit for bit. *)
  let c = BG.sized ~seed:34 BG.C880 ~target_gates:260 in
  let summary (r : Dft.Atpg.report) =
    (r.Dft.Atpg.coverage, r.Dft.Atpg.patterns, List.length r.Dft.Atpg.untestable)
  in
  let base = summary (Dft.Atpg.run c) in
  List.iter
    (fun chunk ->
      Pool.with_pool ~num_domains:4 (fun p ->
          let got = summary (Dft.Atpg.run ?chunk ~pool:p c) in
          Alcotest.(check bool)
            (Printf.sprintf "chunk=%s matches no-pool run"
               (match chunk with None -> "auto" | Some n -> string_of_int n))
            true (got = base)))
    [ None; Some 1; Some 3; Some 64 ]

let () =
  Alcotest.run "proptest"
    [ ( "harness",
        [ Alcotest.test_case "passing property" `Quick test_passes;
          Alcotest.test_case "replay deterministic" `Quick test_replay_deterministic;
          Alcotest.test_case "shrinks to boundary" `Quick test_shrinks_to_boundary;
          Alcotest.test_case "shrink budget" `Quick test_shrink_budget_respected;
          Alcotest.test_case "pair shrinks componentwise" `Quick
            test_pair_shrinks_componentwise;
          Alcotest.test_case "list min length kept" `Quick test_list_min_len_kept;
          Alcotest.test_case "failure report replayable" `Quick
            test_failure_report_replayable ] );
      ( "oracles",
        [ Alcotest.test_case "ripple adder" `Quick test_ripple_adder_oracle;
          Alcotest.test_case "comparator" `Quick test_comparator_oracle;
          Alcotest.test_case "parity tree" `Quick test_parity_tree_oracle;
          Alcotest.test_case "multipliers agree" `Quick test_multiplier_families_agree ] );
      ( "bench-gen",
        [ Alcotest.test_case "seed determinism" `Quick test_generators_seed_deterministic;
          Alcotest.test_case "lint clean (sized)" `Quick test_generators_lint_clean;
          Alcotest.test_case "lint clean (layered params)" `Quick
            test_layered_params_lint_clean;
          Alcotest.test_case "sized hits target" `Quick test_sized_hits_target ] );
      ( "differential",
        [ Alcotest.test_case "sat vs reference" `Quick test_sat_differential;
          Alcotest.test_case "word sim vs naive" `Quick test_word_sim_differential;
          Alcotest.test_case "lane HW vs scalar HW" `Quick test_hw_lanes_differential;
          Alcotest.test_case "session vs fresh" `Slow test_session_vs_fresh;
          Alcotest.test_case "session budget resume" `Quick test_session_budget_resume;
          Alcotest.test_case "word fault drop vs scalar" `Quick
            test_detects_many_differential ] );
      ( "pooled",
        [ Alcotest.test_case "atpg 1/2/8 domains" `Slow test_atpg_pool_identical;
          Alcotest.test_case "tvla 1/2/8 domains" `Slow test_tvla_pool_identical;
          Alcotest.test_case "placement 1/2/8 domains" `Slow test_placement_pool_identical;
          Alcotest.test_case "trace merge deterministic" `Quick
            test_trace_merge_deterministic;
          Alcotest.test_case "chunking invariant" `Quick
            test_pool_chunking_preserves_results;
          Alcotest.test_case "atpg chunk invariant" `Slow
            test_atpg_chunk_invariance ] ) ]
