(* Pending input is [buf[pos, len)], buffered the way [Ring] buffers the
   send side: a chunk is copied in once, and the buffer is copied only
   to grow or to slide its live bytes to the front. *)
type t = {
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable poisoned : Bgp_wire.Msg.error option;
}

let create () = { buf = Bytes.empty; pos = 0; len = 0; poisoned = None }

(* A new transport connection is a new byte stream: leftover bytes and
   any poison from the previous connection must not leak into it. *)
let reset t =
  t.pos <- 0;
  t.len <- 0;
  t.poisoned <- None

let buffered t = t.len - t.pos

(* Make room for [n] more bytes at [len].  Sliding happens only when the
   live bytes and the chunk fill at most half the buffer, and growth
   doubles past them, so a byte is copied O(1) times amortized. *)
let make_room t n =
  let live = buffered t in
  let cap = Bytes.length t.buf in
  if t.len + n > cap then begin
    let dst =
      if 2 * (live + n) <= cap then t.buf else Bytes.create (2 * (live + n))
    in
    Bytes.blit t.buf t.pos dst 0 live;
    t.buf <- dst;
    t.pos <- 0;
    t.len <- live
  end

let feed t bytes =
  let n = String.length bytes in
  if n > 0 then begin
    make_room t n;
    Bytes.blit_string bytes 0 t.buf t.len n;
    t.len <- t.len + n
  end

type result =
  | Msg of Bgp_wire.Msg.t * int
  | Need_more
  | Error of Bgp_wire.Msg.error

let next t =
  match t.poisoned with
  | Some e -> Error e
  | None -> (
    (* The codec only reads the buffer, and what it returns holds
       copies, so it may see the bytes as a string. *)
    let s = Bytes.unsafe_to_string t.buf in
    let avail = buffered t in
    match Bgp_wire.Codec.required_length s ~pos:t.pos ~avail with
    | Error e ->
      t.poisoned <- Some e;
      Error e
    | Ok None -> Need_more
    | Ok (Some need) ->
      if avail < need then Need_more
      else (
        match Bgp_wire.Codec.decode_at s ~pos:t.pos with
        | Ok (msg, consumed) ->
          t.pos <- t.pos + consumed;
          if t.pos = t.len then begin
            t.pos <- 0;
            t.len <- 0
          end;
          Msg (msg, consumed)
        | Error e ->
          t.poisoned <- Some e;
          Error e))
