type t = {
  mutable probe : int array;
      (* [2s]: the key in slot [s], or [empty]; [2s+1]: that key's id *)
  mutable mask : int;  (* slots - 1 *)
  mutable shift : int;  (* [Sys.int_size - log2 slots]: keeps the high bits *)
  mutable keys : Prefix.t array;  (* id -> key; its length is [capacity] *)
  mutable size : int;
  shrink : bool;
}

(* No prefix is negative. *)
let empty = -1
let min_slots = 8
let min_capacity = 8

(* An odd constant near 2^63 / golden ratio: the product's high bits
   depend on every bit of the key. *)
let mixer = 0x4F1BBCDCBFA53E0B

let[@inline] home_of shift k = (k * mixer) lsr shift

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)
let shift_for slots = Sys.int_size - log2 slots
let home ~capacity p = home_of (shift_for capacity) (p : Prefix.t :> int)
let make_probe slots = Array.make (2 * slots) empty

let create ?(shrink = false) () =
  { probe = make_probe min_slots; mask = min_slots - 1;
    shift = shift_for min_slots; keys = [||]; size = 0; shrink }

let size t = t.size
let capacity t = Array.length t.keys
let slots t = t.mask + 1
let key t id = t.keys.(id)

(* The slot holding [k], or the empty slot that ends its probe run.  The
   table is at most half full, so the run ends. *)
let rec locate probe mask k s =
  let x = Array.unsafe_get probe (2 * s) in
  if x = k || x = empty then s else locate probe mask k ((s + 1) land mask)

let[@inline] slot_of t k = locate t.probe t.mask k (home_of t.shift k)

let find t p =
  let k = (p : Prefix.t :> int) in
  let s = slot_of t k in
  if Array.unsafe_get t.probe (2 * s) = k then Array.unsafe_get t.probe ((2 * s) + 1)
  else -1

(* Re-insert every member into a probe array of [slots] slots. *)
let rehash t slots =
  t.probe <- make_probe slots;
  t.mask <- slots - 1;
  t.shift <- shift_for slots;
  for id = 0 to t.size - 1 do
    let k = (t.keys.(id) :> int) in
    let s = slot_of t k in
    t.probe.(2 * s) <- k;
    t.probe.((2 * s) + 1) <- id
  done

let resize_keys t cap =
  let keys = Array.make cap Prefix.default in
  Array.blit t.keys 0 keys 0 t.size;
  t.keys <- keys

let add t p =
  let k = (p : Prefix.t :> int) in
  let s = slot_of t k in
  if t.probe.(2 * s) = k then t.probe.((2 * s) + 1)
  else begin
    let id = t.size in
    if id = Array.length t.keys then resize_keys t (max min_capacity (2 * id));
    t.keys.(id) <- p;
    t.size <- id + 1;
    if 2 * t.size > slots t then rehash t (2 * slots t)
    else begin
      t.probe.(2 * s) <- k;
      t.probe.((2 * s) + 1) <- id
    end;
    id
  end

(* Backward-shift deletion: empty slot [s], then walk its probe run and
   move back every entry whose home does not lie cyclically in
   (hole, j], so no lookup ever meets a gap before its key. *)
let delete_slot t s =
  let probe = t.probe and mask = t.mask in
  let hole = ref s and j = ref ((s + 1) land mask) in
  while probe.(2 * !j) <> empty do
    let k = probe.(2 * !j) in
    if (!j - home_of t.shift k) land mask >= (!j - !hole) land mask then begin
      probe.(2 * !hole) <- k;
      probe.((2 * !hole) + 1) <- probe.((2 * !j) + 1);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  probe.(2 * !hole) <- empty

(* Halve the arrays of a sparse index; an empty one returns to its
   starting size. *)
let shrink_if_sparse t =
  if t.size = 0 then begin
    if Array.length t.keys > 0 then t.keys <- [||];
    if slots t > min_slots then rehash t min_slots
  end
  else begin
    if 4 * t.size < Array.length t.keys && Array.length t.keys > min_capacity then
      resize_keys t (Array.length t.keys / 2);
    if 8 * t.size < slots t && slots t > min_slots then rehash t (slots t / 2)
  end

let remove t p =
  let k = (p : Prefix.t :> int) in
  let s = slot_of t k in
  if t.probe.(2 * s) <> k then -1
  else begin
    let id = t.probe.((2 * s) + 1) in
    delete_slot t s;
    let last = t.size - 1 in
    t.size <- last;
    if id <> last then begin
      let moved = t.keys.(last) in
      t.keys.(id) <- moved;
      t.probe.((2 * slot_of t (moved :> int)) + 1) <- id
    end;
    if t.shrink then shrink_if_sparse t;
    id
  end
