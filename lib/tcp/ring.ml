type t = {
  mutable buf : Bytes.t;
  mutable head : int;  (* index of the first queued byte *)
  mutable len : int;   (* queued bytes; tail = (head + len) mod cap *)
}

let create () = { buf = Bytes.create 4096; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* Ensure room for [need] more bytes, unwrapping into the new buffer so
   the data is contiguous from index 0 after a grow. *)
let reserve t need =
  let cap = Bytes.length t.buf in
  if t.len + need > cap then begin
    let ncap = ref cap in
    while t.len + need > !ncap do
      ncap := !ncap * 2
    done;
    let nbuf = Bytes.create !ncap in
    let first = min t.len (cap - t.head) in
    Bytes.blit t.buf t.head nbuf 0 first;
    Bytes.blit t.buf 0 nbuf first (t.len - first);
    t.buf <- nbuf;
    t.head <- 0
  end

let push_string t s =
  let n = String.length s in
  if n > 0 then begin
    reserve t n;
    let cap = Bytes.length t.buf in
    let tail = (t.head + t.len) mod cap in
    let first = min n (cap - tail) in
    Bytes.blit_string s 0 t.buf tail first;
    Bytes.blit_string s first t.buf 0 (n - first);
    t.len <- t.len + n
  end

let contiguous t =
  (t.buf, t.head, min t.len (Bytes.length t.buf - t.head))

let consume t n =
  if n < 0 || n > t.len then invalid_arg "Ring.consume";
  t.head <- (t.head + n) mod Bytes.length t.buf;
  t.len <- t.len - n;
  if t.len = 0 then t.head <- 0

let clear t =
  t.head <- 0;
  t.len <- 0
