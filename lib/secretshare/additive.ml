open Eppi_prelude

type share = int

(* The one draw order: shares 0 .. c-2 uniform from Z_q in turn, then share
   c-1 balances the sum to v.  Every sharing in the repository goes through
   here, so seeded runs replay bit-identically. *)
let share_into rng ~q v ~into j =
  let c = Array.length into in
  if c < 1 then invalid_arg "Additive.share_into: need at least one share";
  let qi = Modarith.to_int q in
  if v < 0 || v >= qi then invalid_arg "Additive.share_into: secret out of [0, q)";
  if c = 1 then v
  else begin
    let s0 = Rng.int rng qi in
    let partial = ref s0 in
    for k = 1 to c - 2 do
      let s = Rng.int rng qi in
      into.(k).(j) <- s;
      partial := Modarith.add_residues q !partial s
    done;
    into.(c - 1).(j) <- Modarith.sub_residues q v !partial;
    s0
  end

let share rng ~q ~c v =
  if c < 1 then invalid_arg "Additive.share: need at least one share";
  let into = Array.init c (fun _ -> [| 0 |]) in
  into.(0).(0) <- share_into rng ~q (Modarith.reduce q v) ~into 0;
  Array.map (fun vector -> vector.(0)) into

let reconstruct ~q shares = Array.fold_left (Modarith.add q) 0 shares

let add ~q a b =
  if Array.length a <> Array.length b then invalid_arg "Additive.add: length mismatch";
  Array.map2 (Modarith.add q) a b

let add_into ~q ~acc b =
  if Array.length acc <> Array.length b then invalid_arg "Additive.add_into: length mismatch";
  for i = 0 to Array.length b - 1 do
    acc.(i) <- Modarith.add_residues q acc.(i) b.(i)
  done

let zero_sharing rng ~q ~c = share rng ~q ~c 0

let rerandomize rng ~q shares =
  add ~q shares (zero_sharing rng ~q ~c:(Array.length shares))
