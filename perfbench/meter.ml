(** Clocks, host facts and small statistics for the benchmark.

    Every end-to-end time is process CPU (user + system, [Unix.times]),
    which is meaningful because each workload runs on one domain with no
    pool and no I/O inside a timed job. Wall time and host steal are
    recorded only as diagnostics: on a shared VM wall time also counts
    the seconds other tenants hold the CPU. *)

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let wall = Unix.gettimeofday

let read_lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> String.split_on_char '\n' text
  | exception Sys_error _ -> []

(** Host steal time in seconds, summed over CPUs ([/proc/stat], USER_HZ
    = 100); 0 where the file is unavailable. *)
let steal_s () =
  match read_lines "/proc/stat" with
  | line :: _ when String.length line > 4 && String.sub line 0 4 = "cpu " ->
    let fields = List.filter (( <> ) "") (String.split_on_char ' ' line) in
    (match List.nth_opt fields 8 with
     | Some v -> (match float_of_string_opt v with Some t -> t /. 100.0 | None -> 0.0)
     | None -> 0.0)
  | _ -> 0.0

(** Peak resident set size of this process (VmHWM) in MB; 0 where
    [/proc/self/status] is unavailable. *)
let peak_rss_mb () =
  let kb =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> Scanf.sscanf_opt v " %d" Fun.id
        | _ -> None)
      (read_lines "/proc/self/status")
  in
  Float.of_int (Option.value kb ~default:0) /. 1024.0

(** Allocation and collection counters, for per-job GC deltas. *)
type gc = { minor_words : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

(** One timed job: compact the heap outside the timed region, then
    measure [f] in CPU seconds together with its GC deltas. *)
let timed f =
  Gc.compact ();
  let g0 = gc_now () in
  let t0 = cpu () in
  let r = f () in
  let dt = cpu () -. t0 in
  let g1 = gc_now () in
  ( r,
    dt,
    { minor_words = g1.minor_words -. g0.minor_words;
      major_collections = g1.major_collections - g0.major_collections } )

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Generator seed of every [Bench_gen] design. Designs are fixed,
    named workloads, as ISCAS circuits are; the workload seed draws what
    a user would randomize: masks, stimuli, keys, campaign randomness. *)
let design_seed = 2020

(** Deterministic seed derivation: the workload seed and a job tag give
    the seed of that job's inputs. *)
let derive seed k = ((seed * 7919) + (k * 104729) + 17) land 0x3FFFFFFF

(** A float rendered with every bit, for exact-repeat fingerprints. *)
let exact f = Printf.sprintf "%h" f
