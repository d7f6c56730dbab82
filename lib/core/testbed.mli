(** The benchmark rig (paper Fig. 1) and the phase loop every driver
    runs on it.

    One router under test (AS 65000, BGP id 10.255.0.1) and [n]
    speakers, speaker [i] being AS [65001+i] at [192.0.2.(i+1)] with
    peer id [i], each attached to the router over its own link pair.
    The paper's rig is [n = 2]; {!Peers_sweep} grows it.

    The links are simulated channels on a discrete-event engine
    ([Sim], virtual time, deterministic) or loopback TCP on a select
    loop ([Live], wall-clock time); nothing else in the rig knows which. *)

type mode = Sim | Live

type side = {
  speaker : Bgp_speaker.Speaker.t;
  peer : Bgp_route.Peer.t;  (** the router's record of this speaker *)
  sp_end : Bgp_engine.Link.t;  (** speaker side: the active opener *)
  rt_end : Bgp_engine.Link.t;  (** router side: passive *)
}

type t = {
  clock : Bgp_engine.Clock.t;
  router : Bgp_router.Router.t;
  sides : side array;  (** speaker [i] is [sides.(i)] *)
  timeout : float;  (** clock seconds {!wait} allows each condition *)
}

val with_rig :
  ?mrai:float ->
  ?damping:Bgp_rib.Damping.config ->
  ?tracer:Bgp_trace.Tracer.t ->
  ?trace_process:string ->
  ?max_prefixes:int ->
  ?restart_delay:float ->
  ?cross_traffic:float ->
  mode ->
  timeout:float ->
  speakers:int ->
  Bgp_router.Arch.t ->
  (t -> 'a) ->
  'a
(** Build the rig, pass it to the script, and release its sockets when
    the script returns or raises.  [mrai], [damping], [tracer] and
    [trace_process] go to {!Bgp_router.Router.create}; [max_prefixes]
    and [restart_delay] to speaker 0's {!Bgp_router.Router.attach_peer},
    the one session a script perturbs; [cross_traffic] is the router's
    offered forwarding load in Mbps.  No session is started. *)

val attrs : side -> path_len:int -> Bgp_route.Attrs.t
(** The speaker's uniform workload attributes
    ({!Bgp_speaker.Workload.attrs}): its AS repeated to [path_len], its
    address as next hop. *)

val wait : t -> what:string -> (unit -> bool) -> unit
(** Advance the clock in growing steps (0.01 s, ×1.5, at most 2 s)
    until the condition holds.  A simulated clock always consumes each
    whole step, so the polling grid, and with it the run's end time,
    depends only on the sequence of [wait] calls.
    @raise Failure naming [what] after [timeout] clock seconds. *)

val establish : t -> side list -> unit
(** Start the speakers' sessions and wait until all are Established. *)

val router_done : t -> int -> unit -> bool
(** At least [n] transactions since the last counter reset, and the
    router idle. *)

(** {1 Phases} *)

type phase = {
  transactions : int;  (** prefixes the router processed *)
  seconds : float;
      (** clock seconds from the phase's first work to its last
          transaction (0 when there was none) *)
  stage_stats : Bgp_pipeline.Pipeline.stage_stat list;
  msgs_rx : int;
  msgs_tx : int;
  metrics : Bgp_stats.Metrics.t;
      (** the router's registry frozen ({!Bgp_stats.Metrics.freeze})
          when the phase was snapshotted: counters and histograms since
          the phase's reset, gauges sampled at that moment.  Every
          component on the router (faults, damping, the harness's own
          histograms) registers here, so a report reads its numbers
          from this copy. *)
}

val phase :
  t -> ?what:string -> ?until:(unit -> bool) -> (unit -> unit) -> phase
(** Reset the router's counters, run the action, {!wait} for [until]
    (default: already true, for an action that does its own waiting)
    and {!snapshot} the result. *)

val snapshot : t -> phase
(** The router's counters since the last reset, as a phase record,
    with a frozen copy of its registry. *)

val tps : phase -> float
(** Transactions per clock second (0 for an empty phase). *)
