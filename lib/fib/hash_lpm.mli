(** Exact-match prefix table with longest-prefix match: the structure
    behind the router's forwarding table ({!Fib}).

    One open-addressing index ({!Bgp_addr.Prefix_index}) over the
    immediate {!Bgp_addr.Prefix.t} with the values in a flat array, plus a
    count of stored prefixes per length.  Installing, replacing and
    withdrawing a route are exact-match hash operations, with no trie
    to descend.  A lookup probes, longest first, only the lengths that
    hold at least one prefix (Ruiz-Sanchez et al.'s "binary search on
    prefix lengths" family, without the binary search).

    Walks ({!iter}, {!to_list}) run in ascending
    {!Bgp_addr.Prefix.compare} order, so they depend on neither probe
    order nor the history of updates. *)

type 'a t

type change =
  | Unchanged  (** the prefix was already bound to an equal value *)
  | Replaced  (** the prefix's value changed *)
  | Added  (** the prefix is new: the table grew by one *)

val create : unit -> 'a t
(** Starts small: an empty table retains a few hundred bytes.  It never
    shrinks, so {!remove} allocates nothing. *)

val size : 'a t -> int

val add : equal:('a -> 'a -> bool) -> 'a t -> Bgp_addr.Prefix.t -> 'a -> change
(** Bind the prefix to the value, unless it is already bound to a value
    [equal] to it.  Allocates only when an [Added] grows the table. *)

val remove : 'a t -> Bgp_addr.Prefix.t -> bool
(** Remove the exact binding; [true] when one was removed. *)

val lookup : 'a t -> Bgp_addr.Ipv4.t -> (Bgp_addr.Prefix.t * 'a) option
(** Longest-prefix match for an address. *)

val iter : (Bgp_addr.Prefix.t -> 'a -> unit) -> 'a t -> unit
(** In ascending {!Bgp_addr.Prefix.compare} order.  The callback must
    not modify the table. *)

val to_list : 'a t -> (Bgp_addr.Prefix.t * 'a) list
