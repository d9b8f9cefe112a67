(** ISW share codec and stimulus for masked circuits — the scheme of the
    paper's motivational example (Sec. II-B).

    Every secret value is split into t+1 XOR shares. The masked circuits
    themselves are built by [Synth.Masking.transform] (ISW is its default
    gadget style); this module encodes and decodes shares and drives a
    {!Synth.Masking.masked} descriptor with original input values. *)

module Circuit = Netlist.Circuit
module Masking = Synth.Masking
module Rng = Eda_util.Rng

(** Re-attach a masked descriptor to a synthesized version of its circuit:
    node ids change across synthesis passes, but share and randomness input
    names are preserved, so they are re-resolved by name. *)
let rebind (masked : Masking.masked) circuit =
  let resolve nm =
    match Circuit.find_by_name circuit nm with
    | Some id -> id
    | None -> invalid_arg (Printf.sprintf "Isw.rebind: input %s lost by synthesis" nm)
  in
  let rebind_ids old_circuit ids =
    Array.map (fun id -> resolve (Circuit.name old_circuit id)) ids
  in
  { masked with
    circuit;
    input_shares =
      List.map (fun (nm, ids) -> nm, rebind_ids masked.circuit ids) masked.input_shares;
    random_inputs = rebind_ids masked.circuit masked.random_inputs }

(** Split [value] into [shares] random XOR shares. *)
let encode rng ~shares value =
  let sh = Array.init shares (fun _ -> Rng.bool rng) in
  let parity = Array.fold_left ( <> ) false sh in
  if parity <> value then sh.(0) <- not sh.(0);
  sh

let decode sh = Array.fold_left ( <> ) false sh

(** Build the full input vector of the masked circuit from original input
    values: shares drawn fresh, randomness drawn fresh. The vector order
    matches the masked circuit's input declaration order. *)
let input_vector rng (masked : Masking.masked) ~values =
  let c = masked.circuit in
  let total = Circuit.num_inputs c in
  let vec = Array.make total false in
  (* Synthesis may reorder inputs, so translate node ids to input
     positions via the declaration order. *)
  let pos_of =
    let tbl = Hashtbl.create 64 in
    Array.iteri (fun pos id -> Hashtbl.replace tbl id pos) (Circuit.inputs c);
    fun id -> Hashtbl.find tbl id
  in
  List.iter
    (fun (name, ids) ->
      let value =
        match List.assoc_opt name values with
        | Some v -> v
        | None -> invalid_arg (Printf.sprintf "Isw.input_vector: missing input %s" name)
      in
      let sh = encode rng ~shares:masked.shares value in
      Array.iteri (fun s id -> vec.(pos_of id) <- sh.(s)) ids)
    masked.input_shares;
  Array.iter (fun id -> vec.(pos_of id) <- Rng.bool rng) masked.random_inputs;
  vec

(** Evaluate the masked circuit on original input [values] with fresh
    masking randomness, decoding each output from its shares. *)
let eval rng (masked : Masking.masked) ~values =
  let vec = input_vector rng masked ~values in
  let outs = Netlist.Sim.eval masked.circuit vec in
  let out_positions =
    let tbl = Hashtbl.create 16 in
    Array.iteri (fun pos (nm, _) -> Hashtbl.replace tbl nm pos) (Circuit.outputs masked.circuit);
    tbl
  in
  List.map
    (fun (nm, share_names) ->
      let bits = Array.map (fun sn -> outs.(Hashtbl.find out_positions sn)) share_names in
      nm, decode bits)
    masked.output_shares
