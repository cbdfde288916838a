(** Compiler from mini-SFDL to Boolean circuits.

    Compilation model (the Fairplay lineage):
    - [for] loops are fully unrolled; the loop variable becomes a
      compile-time constant in each copy of the body;
    - [if] on a secret condition executes both branches and multiplexes every
      assignment; [if] on a public condition selects a branch statically;
    - array indexes must fold to constants after unrolling (checked here with
      bounds);
    - arithmetic grows widths ([+] by one bit, [*] to the sum of widths)
      instead of wrapping; an assignment truncates or zero-extends the value
      to the declared width of its target.  This diverges from Fairplay's
      wrap-around semantics on purpose: the secure-sum pipeline must not lose
      carries silently.

    Inputs are wired per party in declaration order; outputs are emitted in
    declaration order, each value LSB first. *)

type shape =
  | Sbool
  | Suint of int  (** width *)
  | Sarr_bool of int  (** length *)
  | Sarr_uint of int * int  (** length, element width *)

type compiled = {
  circuit : Eppi_circuit.Circuit.t;
  parties : string array;
  input_layout : (string * int * shape) list;
      (** (input name, owning party index, shape), declaration order. *)
  output_layout : (string * shape) list;
}

(** Concrete values for inputs and decoded outputs. *)
type data =
  | Dbool of bool
  | Dint of int
  | Dbools of bool array
  | Dints of int array

exception Error of string * Ast.position

val compile : Ast.program -> compiled
(** @raise Error on problems only visible after unrolling (width/bound
    values, array bounds). The program should have passed {!Typecheck.check}
    first; [compile] re-raises type-shaped problems as [Error] too. *)

val compile_source : string -> compiled
(** Parse, typecheck and compile.
    @raise Lexer.Error, Parser.Error, Typecheck.Error, or Error. *)

val shape_bits : shape -> int
(** Bits a value of this shape occupies in the input and output vectors. *)

val encode_inputs : compiled -> (string * data) list -> bool array array
(** Build the per-party input bit vectors expected by
    {!Eppi_circuit.Circuit.eval} and the MPC runtime.  Every declared input
    must be given a value whose shape matches its declaration.
    @raise Invalid_argument on missing or ill-shaped values. *)

val decode_outputs : compiled -> bool array -> (string * data) list
(** Interpret the raw output bits back into named values. *)

val lookup_output : (string * data) list -> string -> data
(** Convenience accessor. @raise Not_found *)
