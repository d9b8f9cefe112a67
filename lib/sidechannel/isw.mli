(** ISW share codec and stimulus for masked circuits — the scheme of the
    paper's motivational example. Secrets are split into XOR shares; the
    masked circuits are built by [Synth.Masking.transform], whose default
    gadget style is ISW, or by [Dom.transform].

    The stimulus drives any circuit — ISW, DOM, region-masked or
    unmasked — through its net names ({!Synth.Masking.interface_of}):
    [<base>_s<k>] share groups, gadget-prefixed randomness, unshared
    values. It is the one masked-circuit input builder: TVLA sign-off,
    the glitch, mask-failure and per-wire campaigns, composition fault
    injection and functional evaluation all draw through {!vector}. *)

(** Split [value] into fresh random XOR shares. *)
val encode : Eda_util.Rng.t -> shares:int -> bool -> bool array

(** XOR-recombine shares. *)
val decode : bool array -> bool

(** A circuit's named interface resolved to positions, once per circuit. *)
type stimulus = private {
  circuit : Netlist.Circuit.t;
  secrets : (string * int array) list;
      (** per secret: its share input positions ([|p|] when unshared) *)
  randoms : int array;  (** masking-randomness input positions *)
  outputs : (string * int array) list;
      (** per original output: its share output positions *)
}

val stimulus : Netlist.Circuit.t -> stimulus

(** One input vector. Per secret, in interface order: [value name], then
    the secret's fresh shares from [rng] (an unshared secret takes the
    value directly); then fresh randomness for every randomness input. *)
val vector : stimulus -> Eda_util.Rng.t -> value:(string -> bool) -> bool array

(** [fill_lane st rng ~value words lane] draws what {!vector} draws, in
    the same order from [rng], into bit [lane] of the input words
    [words] (one word per input position; other bits are left as they
    are). Filling lanes [0..n-1] from [n] streams yields the input of
    one bit-parallel evaluation of [n] traces. *)
val fill_lane :
  stimulus -> Eda_util.Rng.t -> value:(string -> bool) -> int array -> int -> unit

(** [class_value rng cls] is the TVLA secret of one trace: true in the
    fixed class, uniform from [rng] in the random class. *)
val class_value : Eda_util.Rng.t -> [ `Fixed | `Random ] -> string -> bool

(** A secret's value from an association list.
    @raise Invalid_argument naming a missing input. *)
val value_of : (string * bool) list -> string -> bool

(** Output values ([Netlist.Sim] order) decoded per original output. *)
val decode_outputs : stimulus -> bool array -> (string * bool) list

(** Evaluate a combinational circuit on original input [values] with fresh
    masking; outputs are decoded from their shares.
    @raise Invalid_argument on a missing input. *)
val eval :
  Eda_util.Rng.t -> Netlist.Circuit.t -> values:(string * bool) list -> (string * bool) list
