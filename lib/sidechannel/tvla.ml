(** Test vector leakage assessment (TVLA, Goodwill et al. / [16]): the
    fixed-vs-random Welch t-test on power traces, the paper's reference
    technique for pre-silicon leakage evaluation (Table II, physical-
    synthesis and timing/power-verification rows).

    Two trace populations are collected — one with a *fixed* secret input,
    one with *random* secrets — under otherwise identical conditions. For
    each time sample, Welch's t statistic is computed; |t| above the
    conventional 4.5 threshold flags first-order leakage with high
    confidence. The same pass also yields the second-order (univariate,
    per-class-centred) t, which exposes leakage in the variance — the
    assessment that breaks 2-share masking while first order passes it. *)

module Stats = Eda_util.Stats
module T = Eda_util.Telemetry

let threshold = 4.5

type result = {
  t_per_sample : float array;
  max_abs_t : float;
  leaky_samples : int list;  (* sample indices with |t| > threshold *)
  traces_per_class : int;
  t2_per_sample : float array;  (* second-order t *)
  max_abs_t2 : float;
}

let leaks result = result.max_abs_t > threshold

let leaks_second_order result = result.max_abs_t2 > threshold

(* Pairs per batch. Fixed (not derived from the pool size) so the batch
   boundaries — and with them the moment-merge order — are identical at
   any domain count. *)
let batch_pairs = 32

(** Seeded fixed-vs-random campaign over batches of lanes:
    [collect_batch streams cls] returns one trace per stream for class
    [cls], lane [l] drawing randomness only from [streams.(l)]. Pair [i]
    uses stream [i] of [Rng.split rng traces_per_class]; a batch of up to
    [batch_pairs] consecutive pairs is collected as one [`Fixed] call and
    then one [`Random] call over the same streams, so each stream draws
    its fixed trace before its random one. Traces accumulate into
    per-sample moments (up to the fourth) per batch, in lane order, and
    batches merge in index order: trace values and reduction tree are
    functions of [rng] alone, bit-identical with no pool and with a pool
    of any domain count.

    Telemetry: a [tvla.campaign] span (attrs [seeded], [domains])
    counting [tvla.traces] and gauging the final [tvla.max_abs_t] and
    [tvla.max_abs_t_2nd]; pooled runs (any size, including 1) nest a
    [pool.batch] span with one captured [pool.task] span per batch.
    @raise Invalid_argument on a non-positive trace count, a batch of
    the wrong size, an empty trace or unequal trace lengths. *)
let campaign_batched ?pool rng ~traces_per_class ~collect_batch =
  if traces_per_class <= 0 then
    invalid_arg "Tvla.campaign: traces_per_class must be positive";
  let module P = Eda_util.Pool in
  let domains = match pool with Some p -> P.size p | None -> 1 in
  T.with_span "tvla.campaign"
    ~attrs:
      [ ("traces_per_class", T.Int traces_per_class);
        ("seeded", T.Bool true);
        ("domains", T.Int domains) ]
  @@ fun () ->
  let streams = Eda_util.Rng.split rng traces_per_class in
  let nbatches = (traces_per_class + batch_pairs - 1) / batch_pairs in
  let run_batch b =
    let lo = b * batch_pairs in
    let lanes = Array.sub streams lo (min batch_pairs (traces_per_class - lo)) in
    let moments cls =
      let traces = collect_batch lanes cls in
      if Array.length traces <> Array.length lanes then
        invalid_arg "Tvla.campaign: collect_batch must return one trace per stream";
      let samples = Array.length traces.(0) in
      if samples = 0 then invalid_arg "Tvla.campaign: traces must not be empty";
      let ms = Array.init samples (fun _ -> Stats.moments_create ()) in
      Array.iter
        (fun tr ->
          if Array.length tr <> samples then
            invalid_arg "Tvla.campaign: traces must have equal length";
          Array.iteri (fun k m -> Stats.moments_add m tr.(k)) ms)
        traces;
      ms
    in
    let fixed_m = moments `Fixed in
    let random_m = moments `Random in
    if Array.length random_m <> Array.length fixed_m then
      invalid_arg "Tvla.campaign: traces must have equal length";
    (fixed_m, random_m)
  in
  let batch_ids = Array.init nbatches (fun b -> b) in
  let batches =
    match pool with
    | Some p ->
      (* scheduling grain only: batch boundaries (and so the merge
         order) stay fixed by [batch_pairs] at any domain count *)
      let chunk = max 1 (nbatches / (4 * P.size p)) in
      P.parallel_map ~label:"tvla" ~chunk p batch_ids ~f:(fun _ctx b -> run_batch b)
    | None -> Array.map (fun b -> Some (run_batch b)) batch_ids
  in
  let merged = ref None in
  Array.iter
    (function
      | None -> ()  (* unreachable: no budget is handed to the pool *)
      | Some (fm, rm) ->
        (match !merged with
         | None -> merged := Some (Array.copy fm, Array.copy rm)
         | Some (mf, mr) ->
           if Array.length fm <> Array.length mf then
             invalid_arg "Tvla.campaign: traces must have equal length";
           Array.iteri (fun k m -> mf.(k) <- Stats.moments_merge mf.(k) m) fm;
           Array.iteri (fun k m -> mr.(k) <- Stats.moments_merge mr.(k) m) rm))
    batches;
  match !merged with
  | None -> invalid_arg "Tvla.campaign: no traces collected"
  | Some (mf, mr) ->
    let samples = Array.length mf in
    let t_per_sample = Array.init samples (fun k -> Stats.welch_t_moments mf.(k) mr.(k)) in
    let t2_per_sample = Array.init samples (fun k -> Stats.welch_t2_moments mf.(k) mr.(k)) in
    let leaky =
      List.filter
        (fun k -> Float.abs t_per_sample.(k) > threshold)
        (List.init samples (fun k -> k))
    in
    let result =
      { t_per_sample;
        max_abs_t = Stats.max_abs t_per_sample;
        leaky_samples = leaky;
        traces_per_class;
        t2_per_sample;
        max_abs_t2 = Stats.max_abs t2_per_sample }
    in
    T.count "tvla.traces" (2 * traces_per_class);
    T.gauge "tvla.max_abs_t" result.max_abs_t;
    T.gauge "tvla.max_abs_t_2nd" result.max_abs_t2;
    result

(** The one-trace-per-call form of {!campaign_batched}: [collect stream
    cls] produces one trace, and must return a fresh array each call
    (a batch holds its traces before accumulating them). *)
let campaign_seeded ?pool rng ~traces_per_class ~collect =
  campaign_batched ?pool rng ~traces_per_class ~collect_batch:(fun streams cls ->
      Array.map (fun s -> collect s cls) streams)
