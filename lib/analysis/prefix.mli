(** Algorithm 3: pre-fuzz path analysis and branch weighting (§IV-C).

    Given the trace of a pre-fuzz execution, every exercised branch gets a
    [nested_score] (the count of branch instructions on the path prefix up
    to and including it) and a vulnerability bonus when a vulnerable
    instruction is reached after it on the path — or, statically, when the
    branch's {e unexplored} side can reach one (via {!Cfg}). The final
    weight drives the dynamic-adaptive energy allocation. *)

type weighted_branch = {
  pc : int;
  taken : bool;
  nested_score : int;
  vulnerable : bool;  (** vulnerable instruction on the path after it *)
  flip_vulnerable : bool;  (** statically, the other side reaches one *)
  weight : float;
}

type params = {
  nested_coeff : float;  (** contribution per nesting level *)
  vuln_bonus : float;  (** additional weight for vulnerable branches *)
}

val default_params : params

val is_vulnerable_event : Evm.Trace.event -> bool
(** The events Algorithm 3 counts as a vulnerable instruction reached:
    external calls, SELFDESTRUCT, block-state and ORIGIN uses, balance
    comparisons, arithmetic overflows and outgoing value transfers. *)

val flip_vulnerable : Cfg.t -> pc:int -> taken:bool -> bool
(** Statically, the side [(pc, not taken)] can reach a vulnerable
    instruction. *)

val analyze_trace : ?params:params -> Cfg.t -> Evm.Trace.t -> weighted_branch list
(** One entry per branch event of the trace, in path order. *)

val weight_table :
  ?params:params -> Cfg.t -> Evm.Trace.t list -> (int * bool, float) Hashtbl.t
(** Fold many pre-fuzz traces into a per-branch weight map, keeping the
    maximum weight observed for each (pc, taken) identity. *)
