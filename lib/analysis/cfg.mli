(** Lightweight control-flow analysis over compiled bytecode.

    Serves the "lightweight abstract interpreter" role of §IV-C: it
    resolves static jump targets (the code generator always emits
    [PUSH label; JUMP/JUMPI]), finds the program's vulnerable-instruction
    locations, and answers reachability queries used to weight branches
    whose unexplored side can reach a vulnerable instruction. *)

type t

val build : Evm.Bytecode.t -> t

val successors : t -> int -> int list
(** Instruction-index successors (empty for terminators). *)

val branch_points : t -> int list
(** Indices of every [JUMPI]. *)

val branch_successor : t -> int -> taken:bool -> int option
(** The side of a [JUMPI]: fallthrough for [taken:false], the statically
    pushed target for [taken:true] (when resolvable). *)

val vulnerable_pcs : t -> (int * string) list
(** Locations of instructions that may introduce vulnerabilities (the
    paper's examples: [call.value], [block.timestamp], plus
    [DELEGATECALL], [SELFDESTRUCT], [BALANCE], [ORIGIN], arithmetic);
    each tagged with its class name. *)

val reachable : t -> int -> (int, unit) Hashtbl.t
(** All instruction indices reachable from the given index, the index
    itself included. A fresh depth-first walk per call. *)

val reaches_vulnerable : t -> int -> bool
(** Whether any vulnerable instruction is reachable from the index
    ([false] outside the code). A read of a table {!build} computes in
    one backward pass over the predecessor edges, so a [t] is immutable
    and safe to share across domains. *)
