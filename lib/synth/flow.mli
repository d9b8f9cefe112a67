(** Synthesis entry points and the PPA cost model. [optimize] and
    [optimize_secure] are thin wrappers over the data-described recipes
    of the same names (see {!Pipeline}); they produce bit-identical
    circuits to the historical hardcoded flows. *)

type ppa = { area : float; delay_ps : float; gate_count : int; power_proxy : float }

(** Static PPA estimate: cell areas, STA delay, 0.5-activity power proxy. *)
val ppa : Netlist.Circuit.t -> ppa

(** The classical flow; [reassoc:false] skips the XOR re-association. *)
val optimize : ?reassoc:bool -> Netlist.Circuit.t -> Netlist.Circuit.t

(** Security-aware variant: nodes whose name satisfies [protect] are copied
    verbatim — never merged, simplified or re-associated. The standard
    masked-gadget prefixes ({!Masking.gadget_prefixes}) are always fenced,
    with or without [protect]. *)
val optimize_secure : ?protect:(string -> bool) -> Netlist.Circuit.t -> Netlist.Circuit.t
