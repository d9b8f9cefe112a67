(** Statistical primitives used across leakage assessment, PUF metrics and
    attack evaluation: online moments, Welch's t-test, Pearson correlation,
    simple histograms and entropy estimates. *)

type moments = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;  (* sum of squared deviations, Welford *)
  mutable m3 : float;  (* sum of cubed deviations *)
  mutable m4 : float;  (* sum of fourth-power deviations *)
  mutable vmin : float;  (* smallest observation; +inf while empty *)
  mutable vmax : float;  (* largest observation; -inf while empty *)
}

let moments_create () =
  { n = 0; mean = 0.0; m2 = 0.0; m3 = 0.0; m4 = 0.0; vmin = Float.infinity;
    vmax = Float.neg_infinity }

(** One-pass update of all four central sums (Pébay, "Formulas for robust,
    one-pass parallel computation of covariances and arbitrary-order
    statistical moments", Sandia 2008). [m4] and [m3] read the old [m2]
    and [m3], so they update first; [mean] and [m2] use exactly Welford's
    operations, which keeps first-order statistics bit-identical to a
    two-moment accumulator. *)
let moments_add m x =
  let n1 = Float.of_int m.n in
  m.n <- m.n + 1;
  let fn = Float.of_int m.n in
  let delta = x -. m.mean in
  let delta_n = delta /. fn in
  let delta_n2 = delta_n *. delta_n in
  let term1 = delta *. delta_n *. n1 in
  m.m4 <-
    m.m4
    +. (term1 *. delta_n2 *. ((fn *. fn) -. (3.0 *. fn) +. 3.0))
    +. (6.0 *. delta_n2 *. m.m2)
    -. (4.0 *. delta_n *. m.m3);
  m.m3 <- m.m3 +. (term1 *. delta_n *. (fn -. 2.0)) -. (3.0 *. delta_n *. m.m2);
  m.mean <- m.mean +. delta_n;
  m.m2 <- m.m2 +. (delta *. (x -. m.mean));
  if x < m.vmin then m.vmin <- x;
  if x > m.vmax then m.vmax <- x

let moments_mean m = m.mean

let moments_variance m = if m.n < 2 then 0.0 else m.m2 /. Float.of_int (m.n - 1)

(** Merge two accumulators into a fresh one (Chan et al.'s pairwise update
    for [mean]/[m2], Pébay's for [m3]/[m4]). Merging partial accumulators
    in a fixed order gives the same moments regardless of how the
    underlying samples were batched, which is what makes parallel TVLA
    reductions deterministic. *)
let moments_merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let fa = Float.of_int a.n and fb = Float.of_int b.n and fn = Float.of_int n in
    let delta = b.mean -. a.mean in
    let delta2 = delta *. delta in
    { n;
      mean = a.mean +. (delta *. fb /. fn);
      m2 = a.m2 +. b.m2 +. (delta *. delta *. fa *. fb /. fn);
      m3 =
        a.m3 +. b.m3
        +. (delta2 *. delta *. fa *. fb *. (fa -. fb) /. (fn *. fn))
        +. (3.0 *. delta *. ((fa *. b.m2) -. (fb *. a.m2)) /. fn);
      m4 =
        a.m4 +. b.m4
        +. (delta2 *. delta2 *. fa *. fb *. ((fa *. fa) -. (fa *. fb) +. (fb *. fb))
            /. (fn *. fn *. fn))
        +. (6.0 *. delta2 *. ((fa *. fa *. b.m2) +. (fb *. fb *. a.m2)) /. (fn *. fn))
        +. (4.0 *. delta *. ((fa *. b.m3) -. (fb *. a.m3)) /. fn);
      vmin = Float.min a.vmin b.vmin;
      vmax = Float.max a.vmax b.vmax }
  end

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. Float.of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let mu = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. mu) *. (x -. mu))) 0.0 xs in
    acc /. Float.of_int (n - 1)
  end

let std xs = sqrt (variance xs)

(** Welch's t statistic between two samples; the TVLA decision statistic.
    Returns 0 when either sample is degenerate. *)
let welch_t xs ys =
  let nx = Array.length xs and ny = Array.length ys in
  if nx < 2 || ny < 2 then 0.0
  else begin
    let vx = variance xs /. Float.of_int nx in
    let vy = variance ys /. Float.of_int ny in
    let denom = sqrt (vx +. vy) in
    if denom <= 0.0 then 0.0 else (mean xs -. mean ys) /. denom
  end

(** Welch's t from two moment accumulators — same statistic as {!welch_t}
    on the raw samples, computed streamingly. Returns 0 when either side
    is degenerate, mirroring [welch_t]. *)
let welch_t_moments ma mb =
  if ma.n < 2 || mb.n < 2 then 0.0
  else begin
    let va = moments_variance ma /. Float.of_int ma.n in
    let vb = moments_variance mb /. Float.of_int mb.n in
    let denom = sqrt (va +. vb) in
    if denom <= 0.0 then 0.0 else (ma.mean -. mb.mean) /. denom
  end

(** Second-order (univariate) Welch t from two moment accumulators, with
    each class centred on its own mean (Schneider & Moradi, "Leakage
    Assessment Methodology", CHES 2015). The centred square (x - mean)^2
    has class mean [m2/n] and class variance [m4/n - (m2/n)^2], so the
    statistic needs no second pass over the traces. Returns 0 when either
    side is degenerate. *)
let welch_t2_moments ma mb =
  if ma.n < 2 || mb.n < 2 then 0.0
  else begin
    let centred m =
      let fn = Float.of_int m.n in
      let mu = m.m2 /. fn in
      (mu, ((m.m4 /. fn) -. (mu *. mu)) /. fn)
    in
    let mua, va = centred ma and mub, vb = centred mb in
    let denom = sqrt (va +. vb) in
    (* [not (>)] also rejects the NaN of a rounding-negative variance *)
    if not (denom > 0.0) then 0.0 else (mua -. mub) /. denom
  end

(** Welch-Satterthwaite degrees of freedom, for completeness of reporting. *)
let welch_df xs ys =
  let nx = Float.of_int (Array.length xs) and ny = Float.of_int (Array.length ys) in
  let vx = variance xs /. nx and vy = variance ys /. ny in
  let num = (vx +. vy) ** 2.0 in
  let den = ((vx ** 2.0) /. (nx -. 1.0)) +. ((vy ** 2.0) /. (ny -. 1.0)) in
  if den <= 0.0 then 1.0 else num /. den

(** Pearson correlation coefficient; the CPA decision statistic. *)
let pearson xs ys =
  let n = Array.length xs in
  assert (n = Array.length ys);
  if n < 2 then 0.0
  else begin
    let mx = mean xs and my = mean ys in
    let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
    for i = 0 to n - 1 do
      let dx = xs.(i) -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    let denom = sqrt (!sxx *. !syy) in
    if denom <= 0.0 then 0.0 else !sxy /. denom
  end

(** Population count of all 63 bits of a native int. Branch-free SWAR on
    32-bit halves (64-bit mask literals would wrap on OCaml's 63-bit
    ints), no allocation — safe to call per net word in simulation
    sweeps. *)
let popcount x =
  let half v =
    let v = v - ((v lsr 1) land 0x55555555) in
    let v = (v land 0x33333333) + ((v lsr 2) land 0x33333333) in
    let v = (v + (v lsr 4)) land 0x0F0F0F0F in
    (* the byte-sum multiply needs an explicit mask: OCaml ints do not
       truncate at 32 bits, so the higher partial products survive *)
    ((v * 0x01010101) lsr 24) land 0xFF
  in
  half (x land 0xFFFFFFFF) + half (x lsr 32)

(** Hamming weight of the low [bits] bits of [x]. *)
let hamming_weight ?(bits = 64) x =
  if bits >= 63 then popcount x else popcount (x land ((1 lsl bits) - 1))

let hamming_distance ?(bits = 64) x y = hamming_weight ~bits (x lxor y)

(** Shannon entropy (bits) of an empirical distribution given as counts. *)
let entropy_of_counts counts =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else
    Array.fold_left
      (fun acc c ->
        if c = 0 then acc
        else begin
          let p = Float.of_int c /. Float.of_int total in
          acc -. (p *. (log p /. log 2.0))
        end)
      0.0 counts

(** Histogram of integer observations into [nbins] equal bins over
    [lo, hi). Out-of-range samples are clamped into the edge bins. *)
let histogram ~nbins ~lo ~hi xs =
  assert (nbins > 0 && hi > lo);
  let counts = Array.make nbins 0 in
  let width = (hi -. lo) /. Float.of_int nbins in
  let place x =
    let b = Float.to_int ((x -. lo) /. width) in
    let b = if b < 0 then 0 else if b >= nbins then nbins - 1 else b in
    counts.(b) <- counts.(b) + 1
  in
  Array.iter place xs;
  counts

(** Max absolute value of an array; used for per-sample TVLA summaries. *)
let max_abs xs = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 xs

(** Simple argmax over an array; returns index of first maximum. *)
let argmax xs =
  let best = ref 0 in
  for i = 1 to Array.length xs - 1 do
    if xs.(i) > xs.(!best) then best := i
  done;
  !best

(** Two-proportion success-rate summary used by attack benchmarks. *)
let success_rate successes trials =
  if trials = 0 then 0.0 else Float.of_int successes /. Float.of_int trials
