(** DIR-24-8-BASIC lookup table (Gupta/Lin/McKeown, as surveyed by
    Ruiz-Sanchez et al. [9] in the paper's related work).

    A compiled, read-optimized structure: one 2{^24}-entry first-level
    table indexed by the top 24 address bits, plus 256-entry
    second-level blocks for the minority of prefixes longer than /24.
    Lookups touch at most two array cells — the hardware-friendly
    design used by line-card ASICs.

    The price is update cost: a single insertion may rewrite up to
    2{^24} first-level cells, which is why this module only offers
    whole-table {!build}.  The bench suite uses it to show the
    throughput/updatability trade-off against {!Bgp_fib.Hash_lpm} and
    {!Patricia}. *)

type 'a t

val build : (Bgp_addr.Prefix.t * 'a) list -> 'a t
(** Compile a table.  When the same prefix appears twice the later
    binding wins.
    @raise Invalid_argument when there are more than 32766 distinct
    bindings (the 15-bit index budget of the two-byte cells). *)

val lookup : 'a t -> Bgp_addr.Ipv4.t -> (Bgp_addr.Prefix.t * 'a) option
val size : 'a t -> int
val memory_bytes : 'a t -> int
(** Approximate resident size of the index arrays (the figure the
    lookup-survey trade-off is about). *)
