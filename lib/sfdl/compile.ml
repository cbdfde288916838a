open Ast
module Circuit = Eppi_circuit.Circuit
module B = Circuit.Builder
module Word = Eppi_circuit.Word

type shape =
  | Sbool
  | Suint of int
  | Sarr_bool of int
  | Sarr_uint of int * int

type compiled = {
  circuit : Circuit.t;
  parties : string array;
  input_layout : (string * int * shape) list;
  output_layout : (string * shape) list;
}

type data =
  | Dbool of bool
  | Dint of int
  | Dbools of bool array
  | Dints of int array

exception Error of string * Ast.position

let fail pos fmt = Printf.ksprintf (fun message -> raise (Error (message, pos))) fmt

(* Runtime (circuit-time) values. *)
type value = Vbool of Circuit.wire | Vword of Word.word

(* Resolved scalar type of a declared variable. *)
type rty = Rbool | Ruint of int

type slot = { rty : rty; cells : value array }
(* A scalar is a 1-cell slot; an array of length k has k cells. *)

type binding =
  | Kconst of int
  | Kconstarr of int array
  | Kloop of int
  | Kparty of int
  | Kslot of slot

type env = { table : (string, binding) Hashtbl.t; builder : B.t }

let lookup env pos name =
  match Hashtbl.find_opt env.table name with
  | Some b -> b
  | None -> fail pos "unknown identifier %s" name

(* Public (constant) evaluation; bools map to 0/1. *)
let rec eval_pub env e =
  match e.desc with
  | Int n -> n
  | Bool b -> if b then 1 else 0
  | Var name -> (
      match lookup env e.pos name with
      | Kconst v | Kloop v -> v
      | Kconstarr _ -> fail e.pos "constant array %s must be indexed" name
      | Kparty _ -> fail e.pos "%s is a party, not a value" name
      | Kslot _ -> fail e.pos "%s is not a public expression" name)
  | Index (name, idx) -> (
      let i = eval_pub env idx in
      match lookup env e.pos name with
      | Kconstarr a ->
          if i < 0 || i >= Array.length a then
            fail idx.pos "index %d out of bounds for %s (length %d)" i name (Array.length a);
          a.(i)
      | _ -> fail e.pos "%s is not a public array" name)
  | Unop (Neg, a) -> -eval_pub env a
  | Unop (Not, a) -> if eval_pub env a = 0 then 1 else 0
  | Binop (op, a, b) -> (
      let va = eval_pub env a and vb = eval_pub env b in
      let bool_of v = v <> 0 in
      match op with
      | Add -> va + vb
      | Sub -> va - vb
      | Mul -> va * vb
      | Div ->
          if vb = 0 then fail e.pos "division by zero in constant expression";
          va / vb
      | Mod ->
          if vb = 0 then fail e.pos "modulo by zero in constant expression";
          va mod vb
      | Lt -> if va < vb then 1 else 0
      | Le -> if va <= vb then 1 else 0
      | Gt -> if va > vb then 1 else 0
      | Ge -> if va >= vb then 1 else 0
      | Eq -> if va = vb then 1 else 0
      | Ne -> if va <> vb then 1 else 0
      | And -> va land vb
      | Or -> va lor vb
      | Xor -> va lxor vb
      | Land -> if bool_of va && bool_of vb then 1 else 0
      | Lor -> if bool_of va || bool_of vb then 1 else 0)
  | Cond (c, a, b) -> if eval_pub env c <> 0 then eval_pub env a else eval_pub env b

let rec is_public env e =
  match e.desc with
  | Int _ | Bool _ -> true
  | Var name -> (
      match Hashtbl.find_opt env.table name with
      | Some (Kconst _ | Kloop _ | Kconstarr _) -> true
      | _ -> false)
  | Index (name, idx) -> (
      match Hashtbl.find_opt env.table name with
      | Some (Kconstarr _) -> is_public env idx
      | _ -> false)
  | Binop (_, a, b) -> is_public env a && is_public env b
  | Unop (_, a) -> is_public env a
  | Cond (c, a, b) -> is_public env c && is_public env a && is_public env b

let resolve_scalar_ty env pos = function
  | Tbool -> Rbool
  | Tuint w ->
      let width = eval_pub env w in
      if width < 1 || width > 62 then fail pos "uint width %d out of range [1, 62]" width;
      Ruint width
  | Tarray _ -> fail pos "nested arrays are not supported"

(* (scalar type, length); length 1 plus [scalar=true] means a true scalar. *)
let resolve_ty env pos ty =
  match ty with
  | Tarray (elem, len_e) ->
      let len = eval_pub env len_e in
      if len < 1 then fail pos "array length %d must be positive" len;
      (resolve_scalar_ty env pos elem, len, false)
  | Tbool | Tuint _ -> (resolve_scalar_ty env pos ty, 1, true)

let shape_of rty len scalar =
  match (rty, scalar) with
  | Rbool, true -> Sbool
  | Ruint w, true -> Suint w
  | Rbool, false -> Sarr_bool len
  | Ruint w, false -> Sarr_uint (len, w)

let zero_value b = function
  | Rbool -> Vbool (B.const b false)
  | Ruint w -> Vword (Word.const_int b ~width:w 0)

let coerce b rty value pos =
  match (rty, value) with
  | Rbool, Vbool w -> Vbool w
  | Ruint width, Vword word ->
      if Array.length word > width then Vword (Array.sub word 0 width)
      else Vword (Word.zero_extend b word width)
  | Rbool, Vword _ -> fail pos "cannot assign an integer to a bool"
  | Ruint _, Vbool _ -> fail pos "cannot assign a bool to an integer"

let bool_mux b sel a c =
  (* c ^ (sel & (a ^ c)) *)
  B.xor_ b c (B.and_ b sel (B.xor_ b a c))

let rec compile_expr env e : value =
  let b = env.builder in
  if is_public env e then begin
    match e.desc with
    | Bool v -> Vbool (B.const b v)
    | _ ->
        let v = eval_pub env e in
        (* Comparisons and logical ops yield bools even when folded. *)
        (match e.desc with
        | Binop ((Lt | Le | Gt | Ge | Eq | Ne | Land | Lor), _, _) | Unop (Not, _) ->
            Vbool (B.const b (v <> 0))
        | _ ->
            if v < 0 then fail e.pos "negative constant %d cannot flow into the circuit" v;
            Vword (Word.const_int b ~width:(Word.bits_for v) v))
  end
  else
    match e.desc with
    | Int _ | Bool _ -> assert false (* public, handled above *)
    | Var name -> (
        match lookup env e.pos name with
        | Kslot { cells = [| v |]; _ } -> v
        | Kslot _ -> fail e.pos "array %s must be indexed" name
        | Kconst _ | Kconstarr _ | Kloop _ | Kparty _ -> assert false)
    | Index (name, idx) when is_public env idx -> (
        let i = eval_pub env idx in
        match lookup env e.pos name with
        | Kslot slot ->
            if i < 0 || i >= Array.length slot.cells then
              fail idx.pos "index %d out of bounds for %s (length %d)" i name
                (Array.length slot.cells);
            slot.cells.(i)
        | Kconstarr _ -> assert false (* public *)
        | Kconst _ | Kloop _ | Kparty _ -> fail e.pos "%s is not an array" name)
    | Index (name, idx) -> (
        (* Secret index: lower the read to a mux chain over all cells (the
           Fairplay approach).  An out-of-range index yields zero. *)
        let idx_word =
          match compile_expr env idx with
          | Vword w -> w
          | Vbool _ -> fail idx.pos "array index must be an integer"
        in
        let cells =
          match lookup env e.pos name with
          | Kslot slot -> Array.copy slot.cells
          | Kconstarr a ->
              Array.map
                (fun v ->
                  if v < 0 then
                    fail e.pos "negative constant %d cannot flow into the circuit" v;
                  Vword (Word.const_int b ~width:(Word.bits_for v) v))
                a
          | Kconst _ | Kloop _ | Kparty _ -> fail e.pos "%s is not an array" name
        in
        let zero =
          match cells.(0) with
          | Vbool _ -> Vbool (B.const b false)
          | Vword w -> Vword (Word.const_int b ~width:(Array.length w) 0)
        in
        let acc = ref zero in
        Array.iteri
          (fun k cell ->
            let k_word = Word.const_int b ~width:(Word.bits_for (max k 1)) k in
            let sel = Word.equal b idx_word k_word in
            acc :=
              (match (cell, !acc) with
              | Vbool x, Vbool y -> Vbool (bool_mux b sel x y)
              | Vword x, Vword y -> Vword (Word.mux b sel x y)
              | _ -> fail e.pos "internal: mixed cell types in %s" name))
          cells;
        !acc)
    | Unop (Not, a) -> (
        match compile_expr env a with
        | Vbool w -> Vbool (B.not_ b w)
        | Vword _ -> fail e.pos "operand of ! must be bool")
    | Unop (Neg, _) -> fail e.pos "unary minus on a secret value is not supported"
    | Cond (c, a, d) -> (
        let vc = compile_expr env c in
        let sel = match vc with Vbool w -> w | Vword _ -> fail c.pos "condition must be bool" in
        let va = compile_expr env a and vd = compile_expr env d in
        match (va, vd) with
        | Vbool x, Vbool y -> Vbool (bool_mux b sel x y)
        | Vword x, Vword y -> Vword (Word.mux b sel x y)
        | _ -> fail e.pos "branches of ?: must have the same type")
    | Binop (op, a, d) -> compile_binop env e.pos op a d

and compile_binop env pos op a d =
  let b = env.builder in
  let va = compile_expr env a and vd = compile_expr env d in
  let words () =
    match (va, vd) with
    | Vword x, Vword y -> (x, y)
    | _ -> fail pos "operands of %s must be integers" (binop_name op)
  in
  let bools () =
    match (va, vd) with
    | Vbool x, Vbool y -> (x, y)
    | _ -> fail pos "operands of %s must be bool" (binop_name op)
  in
  let bitwise f =
    match (va, vd) with
    | Vbool x, Vbool y -> Vbool (f x y)
    | Vword x, Vword y ->
        let width = max (Array.length x) (Array.length y) in
        let x = Word.zero_extend b x width and y = Word.zero_extend b y width in
        Vword (Array.init width (fun i -> f x.(i) y.(i)))
    | _ -> fail pos "operands of %s must both be bool or both integers" (binop_name op)
  in
  match op with
  | Add ->
      let x, y = words () in
      Vword (Word.add b x y)
  | Sub ->
      let x, y = words () in
      Vword (Word.sub b x y)
  | Mul ->
      let x, y = words () in
      Vword (Word.mul b x y)
  | Div ->
      let x, y = words () in
      Vword (fst (Word.divmod b x y))
  | Mod ->
      let x, y = words () in
      Vword (snd (Word.divmod b x y))
  | Lt ->
      let x, y = words () in
      Vbool (Word.lt b x y)
  | Le ->
      let x, y = words () in
      Vbool (B.not_ b (Word.lt b y x))
  | Gt ->
      let x, y = words () in
      Vbool (Word.lt b y x)
  | Ge ->
      let x, y = words () in
      Vbool (Word.ge b x y)
  | Eq -> (
      match (va, vd) with
      | Vword x, Vword y -> Vbool (Word.equal b x y)
      | Vbool x, Vbool y -> Vbool (B.not_ b (B.xor_ b x y))
      | _ -> fail pos "operands of == must have the same type")
  | Ne -> (
      match (va, vd) with
      | Vword x, Vword y -> Vbool (B.not_ b (Word.equal b x y))
      | Vbool x, Vbool y -> Vbool (B.xor_ b x y)
      | _ -> fail pos "operands of != must have the same type")
  | And -> bitwise (B.and_ b)
  | Or -> bitwise (B.or_ b)
  | Xor -> bitwise (B.xor_ b)
  | Land ->
      let x, y = bools () in
      Vbool (B.and_ b x y)
  | Lor ->
      let x, y = bools () in
      Vbool (B.or_ b x y)

(* Snapshot / merge machinery for secret [if]. *)
let snapshot slots = List.map (fun (_, slot) -> Array.copy slot.cells) slots

let restore slots saved =
  List.iter2 (fun (_, slot) cells -> Array.blit cells 0 slot.cells 0 (Array.length cells)) slots saved

let merge env sel slots then_state else_state =
  let b = env.builder in
  List.iteri
    (fun k (name, slot) ->
      ignore name;
      let tcells = List.nth then_state k and ecells = List.nth else_state k in
      Array.iteri
        (fun i _ ->
          if tcells.(i) != ecells.(i) then
            slot.cells.(i) <-
              (match (tcells.(i), ecells.(i)) with
              | Vbool x, Vbool y -> Vbool (bool_mux b sel x y)
              | Vword x, Vword y -> Vword (Word.mux b sel x y)
              | _ -> assert false))
        slot.cells)
    slots

let rec compile_stmt env slots stmt =
  let b = env.builder in
  match stmt.sdesc with
  | Assign (lv, rhs) -> (
      let v = compile_expr env rhs in
      match lv with
      | Lvar name -> (
          match lookup env stmt.spos name with
          | Kslot slot when Array.length slot.cells = 1 ->
              slot.cells.(0) <- coerce b slot.rty v stmt.spos
          | Kslot _ -> fail stmt.spos "cannot assign whole array %s" name
          | _ -> fail stmt.spos "cannot assign to %s" name)
      | Lindex (name, idx) -> (
          let i = eval_pub env idx in
          match lookup env stmt.spos name with
          | Kslot slot ->
              if i < 0 || i >= Array.length slot.cells then
                fail idx.pos "index %d out of bounds for %s (length %d)" i name
                  (Array.length slot.cells);
              slot.cells.(i) <- coerce b slot.rty v stmt.spos
          | _ -> fail stmt.spos "cannot assign to %s" name))
  | For (var, lo_e, hi_e, body) ->
      let lo = eval_pub env lo_e and hi = eval_pub env hi_e in
      for i = lo to hi do
        Hashtbl.add env.table var (Kloop i);
        List.iter (compile_stmt env slots) body;
        Hashtbl.remove env.table var
      done
  | If (cond, then_branch, else_branch) ->
      if is_public env cond then begin
        if eval_pub env cond <> 0 then List.iter (compile_stmt env slots) then_branch
        else List.iter (compile_stmt env slots) else_branch
      end
      else begin
        let sel =
          match compile_expr env cond with
          | Vbool w -> w
          | Vword _ -> fail cond.pos "if condition must be bool"
        in
        let saved = snapshot slots in
        List.iter (compile_stmt env slots) then_branch;
        let then_state = snapshot slots in
        restore slots saved;
        List.iter (compile_stmt env slots) else_branch;
        let else_state = snapshot slots in
        restore slots saved;
        merge env sel slots then_state else_state
      end

let compile program =
  let builder = B.create () in
  let env = { table = Hashtbl.create 16; builder } in
  let parties = ref [] in
  let input_layout = ref [] in
  let output_layout = ref [] in
  let output_slots = ref [] in
  let slots = ref [] in
  let declare pos name binding =
    if Hashtbl.mem env.table name then fail pos "duplicate declaration of %s" name;
    Hashtbl.add env.table name binding
  in
  List.iter
    (fun (decl, pos) ->
      match decl with
      | Dconst (name, Cscalar e) -> declare pos name (Kconst (eval_pub env e))
      | Dconst (name, Carray es) ->
          declare pos name (Kconstarr (Array.of_list (List.map (eval_pub env) es)))
      | Dparty name ->
          let idx = List.length !parties in
          parties := name :: !parties;
          declare pos name (Kparty idx)
      | Dinput (name, ty, owner) ->
          let party =
            match lookup env pos owner with
            | Kparty i -> i
            | _ -> fail pos "input %s: %s is not a party" name owner
          in
          let rty, len, scalar = resolve_ty env pos ty in
          let cells =
            Array.init len (fun _ ->
                match rty with
                | Rbool -> Vbool (B.input builder ~party)
                | Ruint w -> Vword (Word.input_word builder ~party ~width:w))
          in
          let slot = { rty; cells } in
          declare pos name (Kslot slot);
          slots := (name, slot) :: !slots;
          input_layout := (name, party, shape_of rty len scalar) :: !input_layout
      | Doutput (name, ty) ->
          let rty, len, scalar = resolve_ty env pos ty in
          let slot = { rty; cells = Array.init len (fun _ -> zero_value builder rty) } in
          declare pos name (Kslot slot);
          slots := (name, slot) :: !slots;
          output_slots := (name, slot) :: !output_slots;
          output_layout := (name, shape_of rty len scalar) :: !output_layout
      | Dvar (name, ty) ->
          let rty, len, _ = resolve_ty env pos ty in
          let slot = { rty; cells = Array.init len (fun _ -> zero_value builder rty) } in
          declare pos name (Kslot slot);
          slots := (name, slot) :: !slots)
    program.decls;
  let slots = List.rev !slots in
  List.iter (compile_stmt env slots) program.body;
  (* Emit outputs in declaration order, each cell LSB first. *)
  List.iter
    (fun (_, slot) ->
      Array.iter
        (fun cell ->
          match cell with
          | Vbool w -> B.output builder w
          | Vword word ->
              (* Normalize to the declared width. *)
              let word =
                match slot.rty with
                | Ruint w when Array.length word <> w ->
                    if Array.length word > w then Array.sub word 0 w
                    else Word.zero_extend builder word w
                | Ruint _ | Rbool -> word
              in
              Word.output_word builder word)
        slot.cells)
    (List.rev !output_slots);
  {
    circuit = B.finish builder;
    parties = Array.of_list (List.rev !parties);
    input_layout = List.rev !input_layout;
    output_layout = List.rev !output_layout;
  }

let compile_source src =
  let program = Parser.parse src in
  (match Typecheck.check_result program with
  | Ok () -> ()
  | Result.Error { message; pos } -> raise (Error (message, pos)));
  compile program

let shape_bits = function
  | Sbool -> 1
  | Suint w -> w
  | Sarr_bool len -> len
  | Sarr_uint (len, w) -> len * w

let int_bits v width = Array.init width (fun i -> (v lsr i) land 1 = 1)

let encode_inputs compiled values =
  let parties = Array.length compiled.parties in
  let buffers = Array.init parties (fun _ -> Buffer.create 16) in
  let push party bit = Buffer.add_char buffers.(party) (if bit then '1' else '0') in
  List.iter
    (fun (name, party, shape) ->
      let data =
        match List.assoc_opt name values with
        | Some d -> d
        | None -> invalid_arg (Printf.sprintf "encode_inputs: missing value for input %s" name)
      in
      match (shape, data) with
      | Sbool, Dbool v -> push party v
      | Suint w, Dint v ->
          if v < 0 || (w < 62 && v lsr w <> 0) then
            invalid_arg (Printf.sprintf "encode_inputs: %s=%d does not fit in %d bits" name v w);
          Array.iter (push party) (int_bits v w)
      | Sarr_bool len, Dbools vs ->
          if Array.length vs <> len then
            invalid_arg (Printf.sprintf "encode_inputs: %s expects %d bools" name len);
          Array.iter (push party) vs
      | Sarr_uint (len, w), Dints vs ->
          if Array.length vs <> len then
            invalid_arg (Printf.sprintf "encode_inputs: %s expects %d ints" name len);
          Array.iter
            (fun v ->
              if v < 0 || (w < 62 && v lsr w <> 0) then
                invalid_arg
                  (Printf.sprintf "encode_inputs: %s element %d does not fit in %d bits" name v w);
              Array.iter (push party) (int_bits v w))
            vs
      | _ -> invalid_arg (Printf.sprintf "encode_inputs: shape mismatch for %s" name))
    compiled.input_layout;
  Array.map
    (fun buf ->
      let s = Buffer.contents buf in
      Array.init (String.length s) (fun i -> s.[i] = '1'))
    buffers

let decode_outputs compiled bits =
  let cursor = ref 0 in
  let take_bit () =
    let b = bits.(!cursor) in
    incr cursor;
    b
  in
  let take_word w =
    let v = ref 0 in
    for i = 0 to w - 1 do
      if take_bit () then v := !v lor (1 lsl i)
    done;
    !v
  in
  let total = List.fold_left (fun acc (_, s) -> acc + shape_bits s) 0 compiled.output_layout in
  if Array.length bits <> total then
    invalid_arg
      (Printf.sprintf "decode_outputs: expected %d bits, got %d" total (Array.length bits));
  List.map
    (fun (name, shape) ->
      let data =
        match shape with
        | Sbool -> Dbool (take_bit ())
        | Suint w -> Dint (take_word w)
        | Sarr_bool len -> Dbools (Array.init len (fun _ -> take_bit ()))
        | Sarr_uint (len, w) -> Dints (Array.init len (fun _ -> take_word w))
      in
      (name, data))
    compiled.output_layout

let lookup_output outputs name =
  match List.assoc_opt name outputs with Some d -> d | None -> raise Not_found
