(** The EVM interpreter.

    Executes one transaction (an external message call) against a world
    state and returns the new state plus a structured {!Trace.t}. The
    interpreter is instrumented exactly as the paper requires:

    - every [JUMPI] emits a branch event carrying the sFuzz-style branch
      distance of the side not taken (§IV-B, branch distance feedback);
      a selector-dispatcher chain resolved in one step emits one
      [Dispatch] standing for its groups' branch events;
    - stack values carry taint flags so the §IV-D bug oracles can see
      block state, balances, [msg.sender], [tx.origin], calldata and call
      results flowing into sinks;
    - an optional simulated attacker account re-enters the contract when
      it receives value, so reentrancy is actually exercised rather than
      merely pattern-matched. *)

type block_env = {
  timestamp : Word.U256.t;
  number : Word.U256.t;
  coinbase : Word.U256.t;
  difficulty : Word.U256.t;
  gaslimit : Word.U256.t;
}

val default_block : block_env

val advance_block : block_env -> block_env
(** Bump number by one and timestamp by 13 (seconds). *)

type msg = {
  caller : State.address;
  origin : State.address;
  callee : State.address;
  value : Word.U256.t;
  data : string;  (** full calldata: 4-byte selector + ABI-encoded args *)
  gas : int;
}

type config = {
  max_call_depth : int;
  attacker : State.address option;
      (** account that re-enters its caller when paid *)
  max_reentries : int;  (** attacker reentry budget per transaction *)
  comparisons : bool;
      (** build the {!Trace.comparison} records that input prediction
          reads; when [false], every [Branch]'s [cmp] is [None], every
          [Dispatch]'s [cmps] is [false], and the expanded trace is
          otherwise identical *)
}

val default_config : config
(** Call depth 8, the simulated attacker with one reentry, comparison
    records on. *)

val attacker_address : State.address
(** Conventional address installed for the simulated attacker. *)

val preheat : ?depth:int -> unit -> unit
(** Pre-fault this domain's pooled frame stacks and memories for call
    depths [0 .. depth - 1] (default 8), so a batch executor's first
    transactions don't pay pool-growth allocations. Results of
    subsequent {!execute} calls are unchanged. *)

val execute :
  ?config:config ->
  block:block_env ->
  state:State.t ->
  msg ->
  State.t * Trace.t
(** [execute ~block ~state msg] runs the transaction. If the outcome is
    not [Success], the returned state is the input state (the whole
    transaction reverts), but the trace still describes the execution up
    to the failure point — the fuzzer uses those branch events. *)

val cmp_dist : Opcode.t -> Word.U256.t -> Word.U256.t -> float * float
(** [cmp_dist op a b] is the sFuzz-style branch distance pair of the
    comparison [a op b], for [op] one of [EQ], [LT], [GT], [SLT], [SGT]:
    (cost to make it true, cost to make it false), [0.0] on the side
    that currently holds. The comparison opcodes attach it to their
    result, and a [JUMPI] on that result reports it as [dist_to_flip].
    @raise Invalid_argument on any other opcode. *)
