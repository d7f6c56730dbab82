type fate = Pass | Drop | Deliver of string

type t = {
  send : string -> unit;
  start_connect : unit -> unit;
  close : unit -> unit;
  set_receiver : (string -> unit) -> unit;
  set_on_connected : (unit -> unit) -> unit;
  set_on_closed : (unit -> unit) -> unit;
  set_on_failed : (unit -> unit) -> unit;
  set_tap : (string -> fate) option -> unit;
}

let tap t f = t.set_tap (Some f)
