type t = { bits : int array; stride : int }

type feedback = { hits_nested : bool; distance_decreased : bool }

let kind_bit k = 1 lsl Mutation.kind_index k

let all_bits = 0b1111

(* ---------------- staged probing ---------------- *)

type probe = {
  probe_pos : int;
  probe_kind : Mutation.kind;
  probe_stream : string;
}

type plan = { pl_len : int; pl_stride : int; pl_probes : probe array }

let plan rng ~stride ~max_probes stream =
  let len = String.length stream in
  if len = 0 then { pl_len = 0; pl_stride = 1; pl_probes = [||] }
  else begin
    let stride = Stdlib.max 1 stride in
    (* Algorithm 2 line 2: the mutation width n is drawn once. *)
    let n = 1 + Util.Rng.int rng (Stdlib.min 8 len) in
    let acc = ref [] in
    let probes = ref 0 in
    let i = ref 0 in
    while !i < len && !probes < max_probes do
      let pos = !i in
      List.iter
        (fun kind ->
          if !probes < max_probes then begin
            incr probes;
            let mutant = Mutation.apply rng { Mutation.kind; n } ~pos stream in
            acc :=
              { probe_pos = pos; probe_kind = kind; probe_stream = mutant }
              :: !acc
          end)
        Mutation.all_kinds;
      i := !i + stride
    done;
    { pl_len = len; pl_stride = stride; pl_probes = Array.of_list (List.rev !acc) }
  end

let probes pl = pl.pl_probes

let finish pl feedbacks =
  let bits = Array.make (Stdlib.max pl.pl_len 1) 0 in
  if pl.pl_len = 0 then { bits; stride = 1 }
  else begin
    Array.iteri
      (fun i p ->
        match if i < Array.length feedbacks then feedbacks.(i) else None with
        | Some fb when fb.hits_nested || fb.distance_decreased ->
          bits.(p.probe_pos) <- bits.(p.probe_pos) lor kind_bit p.probe_kind
        | _ -> ())
      pl.pl_probes;
    (* Propagate each probed verdict across the positions its stride
       window covers. *)
    for p = 0 to pl.pl_len - 1 do
      if p mod pl.pl_stride <> 0 then begin
        let anchor = p - (p mod pl.pl_stride) in
        bits.(p) <- bits.(anchor)
      end
    done;
    { bits; stride = pl.pl_stride }
  end

let compute rng ~stride ~max_probes ~probe stream =
  let pl = plan rng ~stride ~max_probes stream in
  finish pl (Array.map (fun p -> Some (probe p.probe_stream)) pl.pl_probes)

let allows t kind ~pos =
  if pos < 0 then false
  else if pos >= Array.length t.bits then true
  else t.bits.(pos) land kind_bit kind <> 0

let allow_all len = { bits = Array.make (Stdlib.max len 1) all_bits; stride = 1 }

(* ---------------- JSON codec (campaign checkpoints) ---------------- *)

module J = Telemetry.Json

(* Each position holds a 4-bit kind set, so one hex digit per position
   is the natural wire form. *)
let to_json t =
  let buf = Buffer.create (Array.length t.bits) in
  Array.iter (fun b -> Buffer.add_string buf (Printf.sprintf "%x" (b land all_bits))) t.bits;
  J.Obj [ ("stride", J.Int t.stride); ("bits", J.String (Buffer.contents buf)) ]

let of_json j =
  let open J.Decode in
  let* stride = field "stride" int j in
  let* s = field "bits" string j in
  if stride < 1 || String.length s < 1 then
    Error "mask needs stride >= 1 and a non-empty bits string"
  else
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | _ -> -1
    in
    let bits = Array.init (String.length s) (fun i -> digit s.[i]) in
    if Array.exists (fun d -> d < 0) bits then
      Error "mask bits must be lowercase hex digits"
    else Ok { bits; stride }

let admitted_fraction t =
  let total = 4 * Array.length t.bits in
  let set =
    Array.fold_left
      (fun acc b ->
        acc
        + (b land 1)
        + ((b lsr 1) land 1)
        + ((b lsr 2) land 1)
        + ((b lsr 3) land 1))
      0 t.bits
  in
  if total = 0 then 1.0 else float_of_int set /. float_of_int total
