(** Test vector leakage assessment (TVLA [16]): the fixed-vs-random
    Welch t-test on power traces, at first and second statistical order,
    from one streaming campaign. *)

(** The conventional |t| pass/fail line (4.5). *)
val threshold : float

type result = {
  t_per_sample : float array;
  max_abs_t : float;
  leaky_samples : int list;  (** sample indices with first-order |t| > threshold *)
  traces_per_class : int;
  t2_per_sample : float array;
      (** second-order t: each class centred on its own mean, then squared *)
  max_abs_t2 : float;
}

(** True when any sample's first-order |t| crosses the threshold. *)
val leaks : result -> bool

(** True when any sample's second-order |t| crosses the threshold — the
    verdict that breaks 2-share masking. *)
val leaks_second_order : result -> bool

(** The fixed-vs-random campaign. Pair [i] (fixed then random, as the
    TVLA procedure prescribes) uses stream [i] of
    [Eda_util.Rng.split rng traces_per_class]. Pairs are collected in
    batches of 32 consecutive streams, fixed so that the batches and the
    moment-merge tree are the same at any domain count: [collect_batch
    streams cls] is called once with [`Fixed] and then once with
    [`Random] on the same [streams], and must return one trace per
    stream, lane [l] drawing randomness only from [streams.(l)]. Each
    stream therefore draws its fixed trace before its random one, as in
    a one-trace-at-a-time collection.

    Traces accumulate into per-sample moments up to the fourth (Pébay's
    one-pass update), in lane order within a batch; batches merge in
    index order. The result — every first- and second-order t value, not
    just the verdict — is therefore bit-identical with no pool and with
    a pool of any domain count, and memory stays O(samples) per batch.
    Batches may run concurrently on a pool, so [collect_batch] must
    share no mutable buffer between calls.

    Because [Rng.split] hands out streams in order, the campaign at [n]
    traces per class sees exactly the first [n] pairs of the campaign at
    [m > n] on the same [rng]: a |t|-versus-traces escalation is a series
    of such prefix campaigns.
    @raise Invalid_argument on a non-positive trace count, a batch with
    the wrong number of traces, an empty trace, or unequal trace
    lengths. *)
val campaign_batched :
  ?pool:Eda_util.Pool.t ->
  Eda_util.Rng.t ->
  traces_per_class:int ->
  collect_batch:(Eda_util.Rng.t array -> [ `Fixed | `Random ] -> float array array) ->
  result

(** {!campaign_batched} with one trace per call:
    [collect stream cls] produces the trace of one stream, and a batch
    is [Array.map (fun s -> collect s cls) streams]. The result is that
    of collecting the pairs one at a time. A batch holds up to 32
    traces before it accumulates them, so [collect] must return a fresh
    array on every call, never a reused buffer.
    @raise Invalid_argument as {!campaign_batched}. *)
val campaign_seeded :
  ?pool:Eda_util.Pool.t ->
  Eda_util.Rng.t ->
  traces_per_class:int ->
  collect:(Eda_util.Rng.t -> [ `Fixed | `Random ] -> float array) ->
  result
