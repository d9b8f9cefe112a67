(** The shape every workload has. [setup] generates and serializes the
    designs (the program sees only netlist text) and returns the timed
    job mix; the mix records its jobs and known-answer checks into a
    ledger. With [probe] set, the mix also runs the bench-side probes
    that only the traced pass needs; their CPU is excluded from the
    jobs' time. *)

type t = {
  name : string;
  round_s : float;
      (** nominal CPU of one round of the mix on a 2-vCPU x86-64 VM;
          [--seconds S] gives [max 1 (round (S / round_s))] rounds *)
  setup : seed:int -> rounds:int -> (probe:bool -> Ledger.t -> unit);
      (** applied to [~seed ~rounds] it does the set-up and returns the mix *)
  throughput : Ledger.t -> float;  (** the workload's headline work per CPU second *)
  named : Ledger.t -> (string * float * string) list;
      (** the workload's own end-to-end figures: name, value, unit *)
}

let parse text = Eda_util.Telemetry.with_span "bench.parse" (fun () -> Netlist.Io.of_string text)

let gates c = (Netlist.Circuit.stats c).Netlist.Circuit.gates

(** Failure class of an exception escaping an engine: its message with
    digits dropped, so one class covers every instance. *)
let failure_class = function
  | Invalid_argument msg | Failure msg ->
    String.of_seq (Seq.filter (fun ch -> ch < '0' || ch > '9') (String.to_seq msg))
  | e -> Printexc.exn_slot_name e
