(** Finite sets of prefixes with containment queries.

    Backed by a balanced map keyed by {!Prefix.compare}.  Covering
    queries walk the at-most-33 possible ancestor prefixes, so they are
    O(33 log n) — plenty for policy prefix-lists, which are small. *)

type t

val empty : t
val is_empty : t -> bool
val cardinal : t -> int
val add : Prefix.t -> t -> t
val remove : Prefix.t -> t -> t
val mem : Prefix.t -> t -> bool
val of_list : Prefix.t list -> t
val to_list : t -> Prefix.t list
(** In {!Prefix.compare} order. *)

val covering : Prefix.t -> t -> Prefix.t list
(** [covering p s] is every member of [s] that {!Prefix.subsumes} [p],
    shortest (least specific) first. *)

val best_covering : Prefix.t -> t -> Prefix.t option
(** The longest (most specific) member of [s] subsuming [p]. *)

val covers_addr : Ipv4.t -> t -> bool
(** True iff some member contains the address. *)

val fold : (Prefix.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Prefix.t -> unit) -> t -> unit
val inter : t -> t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
