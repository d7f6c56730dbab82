module Clock = Bgp_engine.Clock
module Msg = Bgp_wire.Msg

type pacing = Unpaced | Timed of float

type t = {
  mutable sent : int;
  total : int;
  mutable failed : bool;
}

let send_now t send msg =
  if not t.failed then
    if send msg then t.sent <- t.sent + 1 else t.failed <- true

let start ~clock ~pacing ~send events =
  let t = { sent = 0; total = List.length events; failed = false } in
  (match pacing with
  | Unpaced ->
    (* Still hop through the pump once so [start] never sends
       synchronously — same contract as Clock.schedule. *)
    Clock.post clock (fun () ->
        List.iter (fun (_, msg) -> send_now t send msg) events)
  | Timed speedup ->
    if not (speedup > 0.) then
      invalid_arg
        (Printf.sprintf "Replay.start: speedup must be > 0, got %g" speedup);
    let base = Clock.now clock in
    List.iter
      (fun (offset, msg) ->
        let at = base +. (Float.max 0. offset /. speedup) in
        ignore (Clock.schedule_at clock ~time:at (fun () -> send_now t send msg)))
      events);
  t

let sent t = t.sent
let total t = t.total
let finished t = t.failed || t.sent = t.total
let failed t = t.failed

module PSet = Set.Make (Bgp_addr.Prefix)

let expected_prefixes events initial =
  let set = ref (PSet.of_list initial) in
  List.iter
    (fun (_, msg) ->
      match msg with
      | Msg.Update u ->
        List.iter (fun p -> set := PSet.remove p !set) u.Msg.withdrawn;
        List.iter (fun p -> set := PSet.add p !set) u.Msg.nlri
      | _ -> ())
    events;
  PSet.elements !set
