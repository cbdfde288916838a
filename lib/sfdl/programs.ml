let bits_for = Eppi_circuit.Word.bits_for

let count_below ~c ~q =
  if c < 2 then invalid_arg "Programs.count_below: need at least 2 coordinators";
  if q < 2 then invalid_arg "Programs.count_below: modulus too small";
  let w = bits_for (q - 1) in
  (* Sum of c residues needs bits_for (c * (q-1)) bits. *)
  let tw = bits_for (c * (q - 1)) in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "program count_below;";
  line "const Q = %d;" q;
  for i = 0 to c - 1 do
    line "party coord%d;" i
  done;
  for i = 0 to c - 1 do
    line "input s%d : uint<%d> of coord%d;" i w i
  done;
  line "input t : uint<%d> of coord0;" w;
  line "output common : bool;";
  line "output freq : uint<%d>;" w;
  line "var total : uint<%d>;" tw;
  line "main {";
  line "  total = %s;" (String.concat " + " (List.init c (Printf.sprintf "s%d")));
  (* A sum of c canonical residues is below c*Q: c-1 conditional subtracts
     reduce it fully. *)
  for _ = 1 to c - 1 do
    line "  if (total >= Q) { total = total - Q; }"
  done;
  line "  common = total >= t;";
  line "  if (common) {";
  line "    freq = 0;";
  line "  } else {";
  line "    freq = total;";
  line "  }";
  line "}";
  Buffer.contents buf

let millionaires ~width =
  Printf.sprintf
    {|program millionaires;
party alice;
party bob;
input a : uint<%d> of alice;
input b : uint<%d> of bob;
output alice_richer : bool;
main {
  alice_richer = a > b;
}
|}
    width width

let sum3 ~width =
  Printf.sprintf
    {|program sum3;
party p0;
party p1;
party p2;
input x0 : uint<%d> of p0;
input x1 : uint<%d> of p1;
input x2 : uint<%d> of p2;
output total : uint<%d>;
main {
  total = x0 + x1 + x2;
}
|}
    width width width (width + 2)

let vickrey_auction ~width ~bidders =
  if bidders < 2 then invalid_arg "Programs.vickrey_auction: need at least 2 bidders";
  let iw = bits_for (bidders - 1) in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "program vickrey;";
  for i = 0 to bidders - 1 do
    line "party bidder%d;" i
  done;
  for i = 0 to bidders - 1 do
    line "input bid%d : uint<%d> of bidder%d;" i width i
  done;
  line "var bids : uint<%d>[%d];" width bidders;
  line "output winner : uint<%d>;" iw;
  line "output price : uint<%d>;" width;
  line "var best : uint<%d>;" width;
  line "var second : uint<%d>;" width;
  line "main {";
  for i = 0 to bidders - 1 do
    line "  bids[%d] = bid%d;" i i
  done;
  line "  best = bids[0];";
  line "  second = 0;";
  line "  winner = 0;";
  line "  for i in 1 .. %d {" (bidders - 1);
  line "    if (bids[i] > best) {";
  line "      second = best;";
  line "      best = bids[i];";
  line "      winner = i;";
  line "    } else {";
  line "      if (bids[i] > second) { second = bids[i]; }";
  line "    }";
  line "  }";
  line "  price = second;";
  line "}";
  Buffer.contents buf
