(** Deterministic synthetic routing-table generation.

    The paper injects "a large routing table" (Internet scale: ~180k
    prefixes in 2007) from a benchmark speaker.  We do not ship real
    RouteViews dumps; instead this module generates tables that are
    - {b repeatable}: a pure function of [(seed, index)], so every
      benchmark run sees the identical table (a stated design goal of
      the paper's benchmark), and
    - {b Internet-shaped}: prefix lengths follow the 2007 BGP table
      distribution (dominated by /24s, with mass at /16–/23 and a thin
      tail of short prefixes).

    Generation uses a SplitMix64-style mixer, so there is no hidden
    state and tables of any two sizes share their common prefix
    ([table ~n] is a prefix of [table ~n:(n+k)] for the same seed). *)

val mix64 : int -> int
(** The underlying 64-bit finalizer (SplitMix64).  Exposed for reuse by
    other deterministic generators (AS paths, traffic). *)

val table : ?seed:int -> n:int -> unit -> Prefix.t array
(** [table ~seed ~n ()] is [n] {e distinct} prefixes drawn from stream
    [seed] (default seed 42), in generation order.
    @raise Invalid_argument if [n < 0]. *)

val length_histogram : Prefix.t array -> (int * int) list
(** [(len, count)] pairs, ascending by [len]; diagnostic for tests. *)
