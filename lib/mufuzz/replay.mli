(** Seed serialisation and corpus persistence.

    A seed serialises to one line per transaction
    ([fn_name sender hex_stream]) with seeds separated by blank lines —
    stable across sessions, so a saved queue can bootstrap a later
    campaign ([Config.initial_corpus]) or replay a witness exactly. *)

val tx_to_line : Seed.tx -> string

val seed_to_string : Seed.t -> string

exception Corrupt of string

val seed_of_string : abi:Abi.func list -> string -> Seed.t
(** @raise Corrupt when a line is malformed or names an unknown
    function. *)

val save_corpus : string -> Seed.t list -> unit

val load_corpus :
  abi:Abi.func list -> string -> Seed.t list * (int * string) list
(** Tolerant corpus load: the seeds that parsed, in file order, plus
    one [(block_index, reason)] per corrupt block skipped — a damaged
    seed never discards the rest of the corpus. (Use
    {!seed_of_string}, which still raises {!Corrupt}, when a parse
    must be strict.)
    @raise Sys_error on an unreadable file. *)
