(** Deterministic MRT dump synthesis.

    Builds a complete in-memory MRT dump — single-peer
    TABLE_DUMP_V2 RIB (the {!Table_io.synthesize} table, attributes
    interned) followed by a BGP4MP update trace over the same prefixes
    (re-announcements with changed paths, plus a withdrawal mix, at
    50 msgs/s recorded pacing).  Tests and CI replay through this
    instead of fetching RouteViews data: same seed, same bytes. *)

val records :
  ?seed:int ->
  ?events:int ->
  n:int ->
  speaker_asn:Bgp_route.Asn.t ->
  next_hop:Bgp_addr.Ipv4.t ->
  unit ->
  Bgp_mrt.Mrt.record list
(** [events] defaults to [max 20 (n / 5)]; pass [0] for a
    table-only dump.  The BGP4MP headers carry [speaker_asn] on both
    the peer and the collector side.
    @raise Invalid_argument if [n < 1] (the trace draws its prefixes
    from the table) or [events < 0]. *)
