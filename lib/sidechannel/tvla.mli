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

(** The fixed-vs-random campaign. [collect stream cls] must produce one
    trace for class [`Fixed] or [`Random], drawing randomness only from
    [stream]; pair [i] (fixed then random, interleaved as the TVLA
    procedure prescribes) uses stream [i] of
    [Eda_util.Rng.split rng traces_per_class]. Traces accumulate into
    per-sample moments up to the fourth (Pébay's one-pass update) in
    fixed-size batches merged in index order, so the result — every
    first- and second-order t value, not just the verdict — is
    bit-identical with no pool and with a pool of any domain count, and
    memory stays O(samples).

    Because [Rng.split] hands out streams in order, the campaign at [n]
    traces per class sees exactly the first [n] pairs of the campaign at
    [m > n] on the same [rng]: a |t|-versus-traces escalation is a series
    of such prefix campaigns.
    @raise Invalid_argument on a non-positive trace count or unequal
    trace lengths. *)
val campaign_seeded :
  ?pool:Eda_util.Pool.t ->
  Eda_util.Rng.t ->
  traces_per_class:int ->
  collect:(Eda_util.Rng.t -> [ `Fixed | `Random ] -> float array) ->
  result
