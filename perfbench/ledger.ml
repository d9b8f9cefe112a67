(** What one pass over a workload's job mix did: every timed job with
    its CPU time, the operations it attempted and how many failed, the
    outputs that must repeat exactly, and every known-answer check that
    went wrong. *)

type job = {
  key : string;  (** kind/design/round: unique within a pass, seed-independent *)
  kind : string;
  cpu_s : float;  (** CPU of the job, bench-side probes excluded *)
  gc : Meter.gc;
  attempted : int;  (** operations: a trace, a fault, a flow stage, an attack, ... *)
  failures : string list;  (** one failure class per failed operation *)
  verdict : string;  (** outcome class that must survive a change of seed *)
  fingerprint : string;  (** deterministic outputs that must repeat exactly *)
  stats : (string * float) list;  (** work done, deterministic counts, probe times *)
}

type t = { mutable jobs : job list; mutable wrong : string list }

let create () = { jobs = []; wrong = [] }

(** Run [f] as one timed job, under a [bench.<kind>] span. [f] returns
    the job's description apart from its timing; a [probe_s] stat (CPU
    spent in bench-side probes that exist only in the traced pass) is
    subtracted from the job's time. *)
let job t ~kind ~design ~round f =
  let (attempted, failures, verdict, fingerprint, stats), cpu_s, gc =
    Meter.timed (fun () -> Eda_util.Telemetry.with_span ("bench." ^ kind) f)
  in
  let probe = Option.value (List.assoc_opt "probe_s" stats) ~default:0.0 in
  t.jobs <-
    { key = Printf.sprintf "%s/%s/%d" kind design round;
      kind;
      cpu_s = cpu_s -. probe;
      gc;
      attempted;
      failures;
      verdict;
      fingerprint;
      stats }
    :: t.jobs

(** Record a known-answer check; a false [ok] makes the run incorrect. *)
let check t ok msg = if not ok then t.wrong <- msg :: t.wrong

let jobs t = List.rev t.jobs
let wrong t = List.rev t.wrong
let of_kind t kind = List.filter (fun j -> j.kind = kind) (jobs t)
let stat j name = Option.value (List.assoc_opt name j.stats) ~default:0.0
let sum f js = List.fold_left (fun acc j -> acc +. f j) 0.0 js
let cpu js = sum (fun j -> j.cpu_s) js
let total t name = sum (fun j -> stat j name) (jobs t)
let makespan t = cpu (jobs t)

let attempted t = List.fold_left (fun acc j -> acc + j.attempted) 0 (jobs t)
let failed t = List.fold_left (fun acc j -> acc + List.length j.failures) 0 (jobs t)

(** Mean CPU per job of [kind]; 0 when the pass ran none. *)
let mean_cpu t kind =
  match of_kind t kind with
  | [] -> 0.0
  | js -> cpu js /. Float.of_int (List.length js)

(** [work] per CPU second over the jobs of [kinds]; 0 when they took no time. *)
let rate t ~kinds work =
  let js = List.filter (fun j -> List.mem j.kind kinds) (jobs t) in
  let c = cpu js in
  if c > 0.0 then sum (fun j -> stat j work) js /. c else 0.0

let classes j = List.sort_uniq compare j.failures

(** Keys of the jobs whose [project]ion differs between two passes over
    the same mix. *)
let mismatches ~project a b =
  let ja = jobs a and jb = jobs b in
  if List.length ja <> List.length jb then [ "job count" ]
  else
    List.filter_map
      (fun (x, y) -> if x.key = y.key && project x = project y then None else Some x.key)
      (List.combine ja jb)
