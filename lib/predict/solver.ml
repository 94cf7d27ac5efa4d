(* Harvey-style magic-value solving over recorded comparison sites.

   Given the comparison a frontier branch's condition derives from —
   operator, the two concrete operands observed at run time, per-side
   taint — propose replacement values for the operand the fuzzer
   controls that make the condition come out the other way. Candidates
   are generated from the usual tables (exact hit for EQ, boundary ±1
   for orderings, two's-complement extremes for the signed forms) and
   then filtered through a concrete re-evaluation of the comparison, so
   every value returned provably flips the condition with the other
   operand held fixed. *)

module U = Word.U256
module T = Evm.Trace.Taint

type side = Lhs | Rhs

(* signed extremes *)
let smin = U.shift_left U.one 255
let smax = U.sub smin U.one

let eval (op : Evm.Trace.cmp_op) a b =
  match op with
  | Ceq -> U.equal a b
  | Clt -> U.lt a b
  | Cgt -> U.gt a b
  | Cslt -> U.slt a b
  | Csgt -> U.sgt a b
  | Ciszero -> U.is_zero a

(* Truth of the branch condition for given operand values: the recorded
   comparison result, negated once per intervening ISZERO. *)
let eval_cond (c : Evm.Trace.comparison) ~lhs ~rhs =
  let r = eval c.cmp_op lhs rhs in
  if c.negated then not r else r

(* An operand side counts as fuzzer-controlled if its value flows from
   transaction input bytes (calldata or msg.value) or from the sender
   choice (CALLER). *)
let input_controlled t =
  T.has t T.calldata || T.has t T.callvalue || T.has t T.caller

let controlled_sides (c : Evm.Trace.comparison) =
  (if input_controlled c.lhs_taint then [ Lhs ] else [])
  @
  match c.cmp_op with
  | Ciszero -> []  (* rhs is synthetic zero *)
  | _ -> if input_controlled c.rhs_taint then [ Rhs ] else []

(* Raw candidate values for [side] that may make [eval cmp_op] come out
   [want]; the caller filters through {!eval_cond}, so over-proposing
   here is harmless. *)
let raw_candidates (op : Evm.Trace.cmp_op) ~(other : U.t) ~want =
  match (op, want) with
  | (Ceq | Ciszero), true -> [ other ]
  | (Ceq | Ciszero), false ->
    [ U.add other U.one; U.sub other U.one; U.lognot other; U.one ]
  | (Clt | Cgt), true -> [ U.sub other U.one; U.add other U.one; U.zero; U.max_value ]
  | (Clt | Cgt), false -> [ other; U.zero; U.max_value ]
  | (Cslt | Csgt), true -> [ U.sub other U.one; U.add other U.one; smin; smax ]
  | (Cslt | Csgt), false -> [ other; smin; smax ]

let dedup values =
  List.fold_left
    (fun acc v -> if List.exists (U.equal v) acc then acc else v :: acc)
    [] values
  |> List.rev

(* Candidate (side, value) pairs that make the branch condition equal
   [want], for every fuzzer-controlled side. For [Ciszero] the
   comparison is unary and only the lhs can move. *)
let candidates (c : Evm.Trace.comparison) ~want =
  (* want is the desired condition value; undo the ISZERO chain to get
     the desired outcome of the comparison itself *)
  let want_op = if c.negated then not want else want in
  List.concat_map
    (fun side ->
      let other = match side with Lhs -> c.rhs | Rhs -> c.lhs in
      raw_candidates c.cmp_op ~other ~want:want_op
      |> dedup
      |> List.filter (fun v ->
             let lhs, rhs =
               match side with Lhs -> (v, c.rhs) | Rhs -> (c.lhs, v)
             in
             eval_cond c ~lhs ~rhs = want)
      |> List.map (fun v -> (side, v)))
    (controlled_sides c)

let side_taint (c : Evm.Trace.comparison) = function
  | Lhs -> c.lhs_taint
  | Rhs -> c.rhs_taint

let side_value (c : Evm.Trace.comparison) = function
  | Lhs -> c.lhs
  | Rhs -> c.rhs
