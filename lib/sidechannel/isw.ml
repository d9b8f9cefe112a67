(** ISW share codec and stimulus for masked circuits — the scheme of the
    paper's motivational example (Sec. II-B).

    Every secret value is split into t+1 XOR shares. The masked circuits
    themselves are built by [Synth.Masking.transform] (ISW is its default
    gadget style) or [Dom.transform]; this module encodes and decodes
    shares and drives any circuit through its net names
    ({!Synth.Masking.interface_of}): [<base>_s<k>] share groups,
    gadget-prefixed randomness, unshared values. *)

module Circuit = Netlist.Circuit
module Masking = Synth.Masking
module Rng = Eda_util.Rng

(* Split [value] into [shares] random XOR shares, handing share [s] to
   [set s]: draw every share, then flip share 0 when the parity misses. *)
let encode_with rng ~shares value set =
  let b0 = Rng.bool rng in
  let parity = ref b0 in
  for s = 1 to shares - 1 do
    let b = Rng.bool rng in
    parity := !parity <> b;
    set s b
  done;
  set 0 (b0 <> (!parity <> value))

(** Split [value] into [shares] random XOR shares. *)
let encode rng ~shares value =
  let sh = Array.make shares false in
  encode_with rng ~shares value (fun s b -> sh.(s) <- b);
  sh

let decode sh = Array.fold_left ( <> ) false sh

type stimulus = {
  circuit : Circuit.t;
  secrets : (string * int array) list;
  randoms : int array;
  outputs : (string * int array) list;
}

(** Resolve a circuit's named interface to input and output positions. *)
let stimulus c =
  let pos = Hashtbl.create 64 in
  Array.iteri (fun p id -> Hashtbl.replace pos id p) (Circuit.inputs c);
  let at = Array.map (Hashtbl.find pos) in
  let iface = Masking.interface_of c in
  { circuit = c;
    secrets = List.map (fun (nm, ids) -> nm, at ids) iface.Masking.secrets;
    randoms = at iface.Masking.randoms;
    outputs =
      Masking.group_shares
        (List.mapi (fun p (nm, _) -> nm, p) (Array.to_list (Circuit.outputs c))) }

(** Draw one stimulus through [set position bit]: per secret, [value
    name] and then its fresh shares (an unshared secret takes the value
    directly); then fresh randomness. *)
let fill st rng ~value set =
  List.iter
    (fun (nm, ps) ->
      let v = value nm in
      if Array.length ps = 1 then set ps.(0) v
      else encode_with rng ~shares:(Array.length ps) v (fun s b -> set ps.(s) b))
    st.secrets;
  Array.iter (fun p -> set p (Rng.bool rng)) st.randoms

(** One input vector, drawn by {!fill}. *)
let vector st rng ~value =
  let vec = Array.make (Circuit.num_inputs st.circuit) false in
  fill st rng ~value (fun p b -> vec.(p) <- b);
  vec

(** Draw one stimulus, as {!vector} does, into bit [lane] of the input
    words [words]. *)
let fill_lane st rng ~value words lane =
  let clear = lnot (1 lsl lane) in
  fill st rng ~value (fun p b ->
      words.(p) <- (words.(p) land clear) lor (Bool.to_int b lsl lane))

let class_value rng cls _ = match cls with `Fixed -> true | `Random -> Rng.bool rng

let value_of values nm =
  match List.assoc_opt nm values with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Isw: missing input %s" nm)

let decode_outputs st outs =
  List.map (fun (nm, ps) -> nm, decode (Array.map (fun p -> outs.(p)) ps)) st.outputs

(** Evaluate a combinational circuit on original input [values] with
    fresh masking, decoding each output from its shares. *)
let eval rng c ~values =
  let st = stimulus c in
  decode_outputs st (Netlist.Sim.eval c (vector st rng ~value:(value_of values)))
