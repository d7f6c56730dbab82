(** Attribute construction for benchmark workloads.

    Scenarios 5-8 hinge on Speaker 2 announcing the {e same} prefixes
    as Speaker 1 with a {e longer} (5/6) or {e shorter} (7/8) AS path,
    so path length is the controlled variable here. *)

val path : origin_asn:Bgp_route.Asn.t -> len:int -> Bgp_route.As_path.t
(** A synthetic AS_SEQUENCE of [len] hops starting at the speaker's own
    AS ([origin_asn]) and padded with deterministic filler ASes.
    @raise Invalid_argument when [len < 1]. *)

val attrs :
  ?med:int ->
  speaker_asn:Bgp_route.Asn.t ->
  next_hop:Bgp_addr.Ipv4.t ->
  path_len:int ->
  unit ->
  Bgp_route.Attrs.t
(** Announcement attributes as a benchmark speaker would send them. *)

val chunk : int -> 'a array -> 'a list list
(** [chunk n arr] splits into consecutive lists of [n] (last one
    shorter).  This is the paper's "packet size" knob by count alone:
    [n = 1] small packets, [n = 500] large packets.  {!Speaker} packs
    with {!Bgp_wire.Codec.updates}, which also keeps every UPDATE within
    4096 bytes.
    @raise Invalid_argument when [n < 1]. *)
