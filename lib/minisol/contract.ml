type t = {
  name : string;
  source : string;
  ast : Ast.contract;
  bytecode : Evm.Bytecode.t;
  abi : Abi.func list;
}

let compile_ast ast ~source =
  let bytecode, abi = Codegen.compile ast in
  { name = ast.Ast.c_name; source; ast; bytecode; abi }

let compile source = compile_ast (Parser.parse source) ~source

let of_embedded ~name ~source_hash ~source =
  let actual = Crypto.Keccak.hash_hex source in
  if actual <> source_hash then
    Error
      (Printf.sprintf
         "embedded source hash mismatch: recorded %s, actual %s (source \
          edited after the document was written?)"
         source_hash actual)
  else
    match compile source with
    | exception _ -> Error "embedded source does not compile"
    | c when c.name <> name ->
      Error
        (Printf.sprintf
           "contract name mismatch: document says %S, source declares %S" name
           c.name)
    | c -> Ok c

let constructor_abi t =
  match List.find_opt (fun f -> f.Abi.is_constructor) t.abi with
  | Some f -> f
  | None -> assert false (* Codegen synthesises one *)

let callable_functions t = List.filter (fun f -> not f.Abi.is_constructor) t.abi

let instruction_count t = Evm.Bytecode.byte_size t.bytecode

let deploy state addr t = Evm.State.set_code state addr t.bytecode
