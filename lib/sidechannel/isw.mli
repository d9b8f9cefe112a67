(** ISW share codec and stimulus for masked circuits — the scheme of the
    paper's motivational example. Secrets are split into XOR shares; the
    masked circuits are built by [Synth.Masking.transform], whose default
    gadget style is ISW. *)

(** Re-attach a masked descriptor to a synthesized version of its circuit:
    ids change across passes, input names do not.
    @raise Invalid_argument if synthesis dropped a share/random input. *)
val rebind : Synth.Masking.masked -> Netlist.Circuit.t -> Synth.Masking.masked

(** Split [value] into fresh random XOR shares. *)
val encode : Eda_util.Rng.t -> shares:int -> bool -> bool array

(** XOR-recombine shares. *)
val decode : bool array -> bool

(** Full input vector for the masked circuit from original input [values]
    (shares and mask randomness drawn fresh from [rng]). *)
val input_vector :
  Eda_util.Rng.t -> Synth.Masking.masked -> values:(string * bool) list -> bool array

(** Evaluate on original inputs with fresh masking; outputs are decoded
    from their shares. *)
val eval :
  Eda_util.Rng.t -> Synth.Masking.masked -> values:(string * bool) list -> (string * bool) list
