type t = {
  sinks : Sink.t array;
  mutex : Mutex.t;
  mutable finalized : bool;
}

let null = { sinks = [||]; mutex = Mutex.create (); finalized = false }

let create sinks =
  { sinks = Array.of_list sinks; mutex = Mutex.create (); finalized = false }

let enabled t = Array.length t.sinks > 0

(* [Mutex.protect] releases the lock when a sink raises: the exception
   reaches the emitting caller, and other domains can still emit. *)
let emit t ev =
  if Array.length t.sinks > 0 then
    Mutex.protect t.mutex (fun () ->
        if not t.finalized then
          Array.iter (fun (s : Sink.t) -> s.on_event ev) t.sinks)

let finalize t =
  if Array.length t.sinks > 0 then
    Mutex.protect t.mutex (fun () ->
        if not t.finalized then begin
          t.finalized <- true;
          Array.iter (fun (s : Sink.t) -> s.on_finalize ()) t.sinks
        end)
