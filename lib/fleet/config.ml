module J = Telemetry.Json

(* the paper's D1 small/large split: encoded instruction count *)
let small_threshold = 3632

type t = {
  tools : string list;
  budget_small : int;
  budget_large : int;
  seed : int64;
  checkpoint_every : int;
  buckets : int;
}

let default =
  {
    tools =
      List.map
        (fun (p : Baselines.Fuzzers.profile) -> p.name)
        Baselines.Fuzzers.all;
    budget_small = 1200;
    budget_large = 2000;
    seed = 0L;
    checkpoint_every = 500;
    buckets = 10;
  }

(* Per-contract campaign seed: the same multiplicative-hash formula the
   bench harness uses (so a fleet run at base seed 0 reproduces the
   bench populations' draws), xor-folded with the fleet base seed. *)
let seed_for t name =
  let h = Hashtbl.hash name in
  Int64.logxor t.seed (Int64.of_int (h * 2654435761 land 0x3FFFFFFFFFFF))

let size_of_contract (c : Minisol.Contract.t) =
  if Minisol.Contract.instruction_count c <= small_threshold then "small"
  else "large"

let budget_for t ~size = if size = "large" then t.budget_large else t.budget_small

let to_json t =
  J.Obj
    [
      ("tools", J.List (List.map (fun s -> J.String s) t.tools));
      ("budget_small", J.Int t.budget_small);
      ("budget_large", J.Int t.budget_large);
      ("seed", J.String (Int64.to_string t.seed));
      ("checkpoint_every", J.Int t.checkpoint_every);
      ("buckets", J.Int t.buckets);
    ]

let of_json json =
  let open J.Decode in
  let* tools = field "tools" (list string) json in
  let* budget_small = field "budget_small" int json in
  let* budget_large = field "budget_large" int json in
  let* seed = field "seed" int64_decimal json in
  let* checkpoint_every = field "checkpoint_every" int json in
  let* buckets = field "buckets" int json in
  if buckets < 1 then Error "fleet config: buckets must be >= 1"
  else if budget_small < 1 || budget_large < 1 then
    Error "fleet config: budgets must be >= 1"
  else
    Ok { tools; budget_small; budget_large; seed; checkpoint_every; buckets }

let to_string t = J.to_string (to_json t)

let of_string s = Result.bind (J.of_string s) of_json

let digest t = Crypto.Keccak.hash_hex (to_string t)

let validate_tools t =
  match
    List.filter (fun name -> Baselines.Fuzzers.find name = None) t.tools
  with
  | [] -> if t.tools = [] then Error "fleet config: no tools" else Ok ()
  | unknown ->
    Error
      (Printf.sprintf "fleet config: unknown tool(s): %s"
         (String.concat ", " unknown))
