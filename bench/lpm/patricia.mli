(** Path-compressed binary trie (Patricia trie) keyed by prefixes, with
    longest-prefix-match lookup.  Kept as an ablation comparator: the
    LPM benches set it against {!Bgp_fib.Hash_lpm}, the structure behind
    the router's forwarding table ({!Bgp_fib.Fib}), and {!Dir24_8}.

    Mutable: [add] and [remove] update the trie in place in a single
    descent, allocating only the nodes they insert.  Path compression
    makes the shape a function of the stored key set, so iteration
    order does not depend on the history of updates. *)

type 'a t

type change = Unchanged | Replaced | Added

val create : unit -> 'a t
val is_empty : 'a t -> bool

val add : equal:('a -> 'a -> bool) -> 'a t -> Bgp_addr.Prefix.t -> 'a -> change
(** Bind the prefix to the value, unless it is already bound to a value
    [equal] to it. *)

val remove : 'a t -> Bgp_addr.Prefix.t -> bool
(** Remove the exact binding; [true] when one was removed. *)

val find_exact : 'a t -> Bgp_addr.Prefix.t -> 'a option

val lookup : 'a t -> Bgp_addr.Ipv4.t -> (Bgp_addr.Prefix.t * 'a) option
(** Longest-prefix match for an address. *)

val cardinal : 'a t -> int
(** O(1): the number of stored prefixes. *)

val iter : (Bgp_addr.Prefix.t -> 'a -> unit) -> 'a t -> unit
(** In ascending {!Bgp_addr.Prefix.compare} order (the trie's
    pre-order). *)

val fold : (Bgp_addr.Prefix.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
val to_list : 'a t -> (Bgp_addr.Prefix.t * 'a) list

val check_invariants : 'a t -> (unit, string) result
(** Structural invariants (children inside parent, no collapsible
    nodes, size counter); used by the property tests. *)
