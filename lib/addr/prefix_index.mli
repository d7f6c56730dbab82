(** An open-addressing set of prefixes that numbers its members densely:
    the key index shared by the RIB's prefix table and the FIB.

    Each member has an id in [\[0, size)].  A table keeps its per-prefix
    payload in its own flat arrays indexed by id, so one probe reaches a
    prefix's whole state.  Ids are stable across {!add}; {!remove} frees
    the removed prefix's id and renumbers the member that held the last
    id into it, so the caller moves that one entry of payload.

    The probe array uses linear probing over a power-of-two capacity
    kept at most half full, a multiplicative mixer whose high bits pick
    the home slot, and backward-shift deletion, so there are no
    tombstones.  Keys and ids sit side by side in one [int] array and
    nothing is boxed: a lookup, an insert or a delete allocates nothing
    unless the table resizes. *)

type t

val create : ?shrink:bool -> unit -> t
(** An empty index; it starts small and grows with its members.  With
    [~shrink:true] (default false) a {!remove} that leaves the index
    sparse also halves its arrays, so a table that empties returns to
    its starting size; without it, removals never allocate. *)

val size : t -> int

val capacity : t -> int
(** The length a payload array indexed by id must have: it changes only
    when an {!add} or a {!remove} resizes the index.  It is 0 until the
    first {!add}, so an empty table holds no payload. *)

val find : t -> Prefix.t -> int
(** The member's id, or [-1] when the prefix is not a member. *)

val add : t -> Prefix.t -> int
(** The prefix's id, adding it with id [size t] (before the call) when
    it is not a member yet. *)

val remove : t -> Prefix.t -> int
(** Remove the prefix and return the id it had, or [-1] when it was not
    a member.  The member that held id [size t] (after the call), if
    any, now holds the returned id. *)

val key : t -> int -> Prefix.t
(** The member with the given id in [\[0, size)]. *)

val home : capacity:int -> Prefix.t -> int
(** The slot a probe for the prefix starts at in a probe array of
    [capacity] slots (a power of two).  Exposed so tests can build
    colliding key sets. *)

val slots : t -> int
(** The probe array's current capacity, in slots. *)
