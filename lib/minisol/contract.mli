(** The source → (bytecode, ABI, AST) pipeline of §IV-A.

    Mirrors the paper's front end: MuFuzz "takes the contract source code
    as inputs, which is then compiled into three types of representations,
    i.e., bytecode, application binary interface (ABI), and abstract
    syntax tree (AST)". *)

type t = {
  name : string;
  source : string;
  ast : Ast.contract;
  bytecode : Evm.Bytecode.t;
  abi : Abi.func list;  (** constructor first, then public functions *)
}

val compile : string -> t
(** Parse, check and compile a contract from source.
    @raise Parser.Parse_error, Lexer.Lex_error or Typecheck.Type_error. *)

val of_embedded :
  name:string -> source_hash:string -> source:string -> (t, string) result
(** The self-contained-document check (checkpoints, repro artifacts):
    [source] must hash (Keccak-256, hex) to [source_hash], compile, and
    declare the contract [name]. Never raises. *)

val compile_ast : Ast.contract -> source:string -> t

val constructor_abi : t -> Abi.func

val callable_functions : t -> Abi.func list
(** Public functions, constructor excluded — what the fuzzer mutates. *)

val instruction_count : t -> int
(** Encoded byte size of the program; the paper's D1 small/large split
    uses a threshold of 3632 on this measure. *)

val deploy : Evm.State.t -> Evm.State.address -> t -> Evm.State.t
(** Install the compiled code at an address (constructor not yet run —
    the fuzzer places the constructor transaction at the head of every
    sequence, as the paper prescribes). *)
