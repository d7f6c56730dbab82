(** CIDR prefixes (RFC 1519 / RFC 4632).

    A prefix is an IPv4 network address plus a mask length.  Values are
    kept canonical: host bits below the mask are always zero, so
    structural equality coincides with semantic equality.

    A prefix is an immediate integer, [(addr lsl 6) lor len]: the
    address in bits 6..37, the length in bits 0..5.  Decoding an NLRI
    therefore allocates nothing, and hashing or comparing a key never
    dereferences a pointer.  The encoding makes these guarantees, which
    the tests pin:
    - [Int.compare], polymorphic [compare] and {!compare} agree, and
      order by address, then by length (shorter first);
    - {!hash} is [Ipv4.hash (addr p) * 31 + len p], so every table
      hashed with it iterates in an order fixed by the (address,
      length) pairs alone. *)

type t = private int
(** [addr] has its host bits zeroed; [0 <= len <= 32]. *)

val make : Ipv4.t -> int -> t
(** [make addr len] canonicalizes [addr] to [len] bits.
    @raise Invalid_argument if [len] is outside [0, 32]. *)

val addr : t -> Ipv4.t
val len : t -> int

val default : t
(** [0.0.0.0/0], the default route. *)

val of_string : string -> (t, string) result
(** Parse ["a.b.c.d/len"]. A bare address parses as a /32.
    Host bits set below the mask are an error (strict CIDR),
    e.g. ["10.0.0.1/24"] is rejected. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse failure. *)

val to_string : t -> string
(** ["a.b.c.d/len"], e.g. ["198.51.100.0/24"]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append {!to_string}'s bytes without building the string. *)

val pp : Format.formatter -> t -> unit

val compare : t -> t -> int
(** Total order: by address, then by length (shorter first). *)

val equal : t -> t -> bool

val mem : Ipv4.t -> t -> bool
(** [mem a p] is true iff address [a] falls inside prefix [p]. *)

val subsumes : t -> t -> bool
(** [subsumes p q] is true iff every address of [q] is in [p]
    (i.e. [p] is a shorter-or-equal prefix of [q]). *)

val first : t -> Ipv4.t
(** Lowest address covered (the network address itself). *)

val last : t -> Ipv4.t
(** Highest address covered (the broadcast address of the prefix). *)

val size : t -> float
(** Number of addresses covered, as a float (a /0 covers 2{^32}). *)

val split : t -> (t * t) option
(** [split p] is the two halves of [p] ([None] for a /32). *)

val bit : t -> int -> bool
(** [bit p i] is bit [i] of the network address; only meaningful for
    [i < len p].
    @raise Invalid_argument if [i] is outside [0, 31]. *)

val hash : t -> int

val wire_octets : t -> int
(** Number of address octets needed to encode this prefix in an
    UPDATE's NLRI field: [ceil(len / 8)] (RFC 4271 §4.3). *)
