(** Textual routing-table serialization.

    A simple line format for full tables — the moral equivalent of an
    MRT RIB dump for this repository, so users can feed the benchmark
    (or [bgpd]) a table of their own instead of the synthetic
    generator:

    {v
    # bgpmark-table v1
    203.0.113.0/24 path=7018,701,3356 origin=igp med=10 lp=100 comm=7018:666
    198.51.100.0/24 path=7018,{3356,2914} origin=incomplete
    v}

    One route per line; [path] is the AS path (braces delimit an
    AS_SET); all attribute fields except [path] are optional.  Next
    hops are supplied by the loader (tables are speaker-relative).
    Lines starting with [#] and blank lines are ignored. *)

type entry = {
  e_prefix : Bgp_addr.Prefix.t;
  e_path : Bgp_route.As_path.t;
  e_origin : Bgp_route.Attrs.origin;
  e_med : int option;
  e_local_pref : int option;
  e_communities : Bgp_route.Community.t list;
}

val to_attrs : next_hop:Bgp_addr.Ipv4.t -> entry -> Bgp_route.Attrs.t

val entry_to_line : entry -> string
val entry_of_line : string -> (entry, string) result

val save : string -> entry list -> unit
(** Write a table file (truncates).
    @raise Sys_error on I/O failure. *)

val load : string -> (entry list, string) result
(** Parse a table file; the error carries the first offending line
    number and reason. *)

val synthesize :
  ?seed:int -> n:int -> speaker_asn:Bgp_route.Asn.t -> unit -> entry list
(** A deterministic synthetic table with {e varied} AS-path lengths
    (2-6 hops, Internet-ish mix) — unlike the benchmark workloads,
    where path length is a controlled variable. *)

val load_auto : string -> (entry list, string) result
(** Sniff the file ({!Bgp_mrt.Mrt.sniff_file}) and dispatch: the
    [# bgpmark-table v1] text format goes through {!load}, a binary
    MRT dump through {!Bgp_mrt.Mrt.read_file}, keeping the
    best-source RIB view ({!Bgp_mrt.Mrt.routes_of_dump}) without next
    hops — like the text format, loaded tables are speaker-relative.
    Unrecognized content is an error naming both accepted formats. *)
