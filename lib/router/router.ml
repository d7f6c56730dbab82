module Clock = Bgp_engine.Clock
module Link = Bgp_engine.Link
module Sched = Bgp_sim.Sched
module Msg = Bgp_wire.Msg
module Codec = Bgp_wire.Codec
module Session = Bgp_fsm.Session
module Peer = Bgp_route.Peer
module Rib_manager = Bgp_rib.Rib_manager
module Damping = Bgp_rib.Damping
module Fib = Bgp_fib.Fib
module Pipeline = Bgp_pipeline.Pipeline
module Metrics = Bgp_stats.Metrics

module Interned = Bgp_route.Attrs.Interned

type peer_link = {
  mutable peer : Peer.t;  (* AS and BGP identifier as of the last OPEN *)
  mutable session : Session.t option;  (* set right after creation *)
  mutable last_rx_size : int;
  max_prefixes : int option;  (* per-peer prefix-limit protection *)
  (* MRAI (RFC 4271 section 9.2.1.1): advertisements pending the
     per-peer MinRouteAdvertisementInterval timer. Later decisions for
     the same prefix overwrite earlier ones (only the final state is
     advertised when the timer fires).  Values are interned handles, so
     the flush groups prefixes into UPDATEs by arena id. *)
  mrai_pending : (Bgp_addr.Prefix.t, Interned.t option) Hashtbl.t;
  mutable mrai_timer : Clock.handle option;
      (* the armed timer ([None]: not armed), kept so session loss can
         cancel it: a timer surviving [on_down] would flush the dead
         session's buffer into the next incarnation of the session *)
}

type counters = {
  transactions : int;
  updates_rx : int;
  withdrawn_rx : int;
  msgs_rx : int;
  msgs_tx : int;
  bytes_rx : int;
  bytes_tx : int;
  first_work_at : float option;
  last_transaction_at : float option;
}

type t = {
  clock : Clock.t;
  arch : Arch.t;
  sched : Sched.t;
  rib : Rib_manager.t;
  fib : Fib.t;
  fwd : Bgp_netsim.Forwarding.t;
  pipeline : Pipeline.t;
  metrics : Metrics.t;
  mrai : float option;
  damp : Damping.t option;
  mutable damp_timer : Clock.handle option;
  peers : (int, peer_link) Hashtbl.t;
  c_transactions : Metrics.counter;
  c_updates_rx : Metrics.counter;
  c_withdrawn_rx : Metrics.counter;
  c_msgs_rx : Metrics.counter;
  c_msgs_tx : Metrics.counter;
  c_bytes_rx : Metrics.counter;
  c_bytes_tx : Metrics.counter;
  mutable first_work_at : float option;
  mutable last_transaction_at : float option;
  mutable route_observer : Bgp_addr.Prefix.t -> unit;
      (* fired once per Loc-RIB best-route change, with the prefix *)
  tracer : Bgp_trace.Tracer.t option;
  fsm_track : Bgp_trace.Tracer.track option;  (* session transitions *)
}

let create ?import ?export ?aggregates ?mrai ?damping ?metrics ?tracer
    ?trace_process clock arch ~local_asn ~router_id =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let trace_process =
    match trace_process with Some p -> p | None -> arch.Arch.name
  in
  let c_transactions = Metrics.counter metrics "router.transactions" in
  let c_updates_rx = Metrics.counter metrics "router.updates_rx" in
  let c_withdrawn_rx = Metrics.counter metrics "router.withdrawn_rx" in
  let c_msgs_rx = Metrics.counter metrics "router.msgs_rx" in
  let c_msgs_tx = Metrics.counter metrics "router.msgs_tx" in
  let c_bytes_rx = Metrics.counter metrics "router.bytes_rx" in
  let c_bytes_tx = Metrics.counter metrics "router.bytes_tx" in
  (* The attribute arena is process-global; expose it as sampled gauges
     so a registry dump shows sharing effectiveness alongside the
     router's own counters. *)
  List.iter
    (fun (name, sample) -> ignore (Metrics.gauge metrics name sample))
    [ ("arena.interns", fun () -> (Interned.stats ()).Interned.interns);
      ("arena.hits", fun () -> (Interned.stats ()).Interned.hits);
      ("arena.live", fun () -> (Interned.stats ()).Interned.live);
      ("arena.saved_bytes", fun () -> (Interned.stats ()).Interned.saved_bytes)
    ];
  let sched =
    Sched.create clock ~hz:(Arch.effective_hz arch) ~pool:arch.Arch.pool
  in
  Option.iter
    (fun tr -> Sched.set_tracer sched ~process:trace_process tr)
    tracer;
  (* The pipeline creates the stage processes in stage order; the
     housekeeper (not part of the update path) comes after, preserving
     the historical bgp/policy/rib/fea/rtrmgr process numbering. *)
  let pipeline =
    Pipeline.create ~clock ~sched ~metrics ~layout:(Arch.layout arch)
      ?tracer ~trace_process (Arch.stage_table arch)
  in
  Option.iter
    (fun name ->
      let proc = Sched.add_proc sched name in
      let rec tick () =
        Sched.submit sched proc ~cycles:arch.Arch.rtrmgr_cycles ignore;
        ignore (Clock.schedule clock ~delay:arch.Arch.rtrmgr_period tick)
      in
      ignore (Clock.schedule clock ~delay:arch.Arch.rtrmgr_period tick))
    (Arch.housekeeper_proc_name arch);
  let fwd =
    Bgp_netsim.Forwarding.create arch.Arch.forwarding sched
      ~line_rate_mbps:arch.Arch.line_rate_mbps
  in
  { clock; arch; sched;
    rib =
      Rib_manager.create ?import ?export ?aggregates ~metrics ~local_asn
        ~router_id ();
    fib = Fib.create (); fwd; pipeline; metrics; mrai;
    damp = Option.map (fun cfg -> Damping.create ~metrics cfg) damping;
    damp_timer = None; peers = Hashtbl.create 8;
    c_transactions; c_updates_rx; c_withdrawn_rx; c_msgs_rx; c_msgs_tx;
    c_bytes_rx;
    c_bytes_tx; first_work_at = None; last_transaction_at = None;
    route_observer = ignore; tracer;
    fsm_track =
      Option.map
        (fun tr ->
          Bgp_trace.Tracer.track tr ~process:trace_process ~thread:"fsm" ())
        tracer }

let sched t = t.sched
let rib t = t.rib
let fib t = t.fib
let forwarding t = t.fwd
let metrics t = t.metrics
let stage_stats t = Pipeline.stage_stats t.pipeline

let set_cross_traffic t mbps = Bgp_netsim.Forwarding.set_offered t.fwd mbps
let set_route_observer t f = t.route_observer <- f

(* Run one inbound UPDATE through the RIB machinery, booking the
   outcomes' counts into [w], the work profile that prices the decision
   and FIB stages.  Returns the FIB deltas and the announcements in NLRI
   order. *)
let run_rib_update t (w : Pipeline.work) ~from (u : Msg.update) =
  (* Accumulated reversed, restored once below: appending would copy
     the whole list for every prefix of a large UPDATE. *)
  let deltas = ref [] and anns = ref [] in
  let add_delta d =
    (match d with
    | Fib.Replace _ -> w.w_fib_replaces <- w.w_fib_replaces + 1
    | Fib.Add _ | Fib.Withdraw _ -> w.w_fib_installs <- w.w_fib_installs + 1);
    deltas := d :: !deltas
  in
  let add_ann a =
    w.w_announcements <- w.w_announcements + 1;
    anns := a :: !anns
  in
  let absorb prefix (o : Rib_manager.outcome) =
    w.w_candidates <- w.w_candidates + o.Rib_manager.candidates;
    if o.Rib_manager.loc_changed then begin
      w.w_loc_changes <- w.w_loc_changes + 1;
      t.route_observer prefix
    end;
    List.iter add_delta o.Rib_manager.fib_deltas;
    List.iter add_ann o.Rib_manager.announcements
  in
  let nlri =
    match t.damp with
    | None -> u.Msg.nlri
    | Some d ->
      (* RFC 2439: withdrawals always reach the RIB (a suppressed route
         must never stay reachable); announcements of suppressed routes
         are withheld before the decision process.  The damping table
         keeps the withheld attrs and the router's reuse timer
         re-injects them when the penalty decays. *)
      let now = Clock.now t.clock in
      List.iter
        (fun p -> Damping.note_withdraw d ~now ~peer:from ~prefix:p)
        u.Msg.withdrawn;
      (match u.Msg.attrs with
      | Some attrs ->
        List.filter
          (fun p ->
            Damping.on_announce d ~now ~peer:from ~prefix:p ~attrs
            = Damping.Pass)
          u.Msg.nlri
      | None -> [])
  in
  List.iter
    (fun p -> absorb p (Rib_manager.withdraw t.rib ~from p))
    u.Msg.withdrawn;
  (match u.Msg.attrs with
  | Some interned ->
    (* Attr-group batched path: one shared handle for all NLRI, so the
       per-attribute guards run once per UPDATE. *)
    Rib_manager.announce_group t.rib ~from ~each:absorb nlri interned
  | None -> ());
  (List.rev !deltas, List.rev !anns)

(* ------------------------------------------------------------------ *)
(* Transmission                                                        *)
(* ------------------------------------------------------------------ *)

let link t peer =
  match Hashtbl.find_opt t.peers peer.Peer.id with
  | Some l -> l
  | None ->
    invalid_arg (Printf.sprintf "Router: unattached peer id %d" peer.Peer.id)

let link_session l =
  match l.session with
  | Some s -> s
  | None -> invalid_arg "Router: session not initialized"

(* The wire image of an outbound message, encoded once.  The packers
   split every multi-prefix UPDATE to fit, so a message that still does
   not fit announces a single route whose attributes leave no room for
   it (an eBGP re-export prepending the local AS can push a legal
   4095-byte UPDATE over the limit).  That route goes to the peer as a
   withdrawal: the peer must not keep a path it can no longer be told
   about. *)
let encode_out msg =
  match Codec.encode_opt msg with
  | Some wire -> (msg, wire)
  | None ->
    let msg =
      Msg.withdrawal
        (match msg with
        | Msg.Update u -> u.Msg.withdrawn @ u.Msg.nlri
        | _ -> [])
    in
    (msg, Codec.encode msg)

(* Send a message to a peer, on [stage]'s process or at once. *)
let transmit t stage peer msg =
  let msg, wire = encode_out msg in
  Pipeline.run_on t.pipeline stage
    ~cycles:(Arch.send_cycles t.arch ~bytes:(String.length wire))
    (fun () ->
      ignore (Session.send_encoded (link_session (link t peer)) msg wire))

(* Flush a peer's MRAI buffer: withdrawals batched together, then
   announcements grouped by interned attribute handle in arena-id order,
   each group as few UPDATEs as fit. *)
let rec mrai_flush t lnk =
  let withdrawn, routes =
    Hashtbl.fold
      (fun prefix attrs (withdrawn, routes) ->
        match attrs with
        | None -> (prefix :: withdrawn, routes)
        | Some interned -> (withdrawn, (prefix, interned) :: routes))
      lnk.mrai_pending ([], [])
  in
  Hashtbl.reset lnk.mrai_pending;
  let msgs =
    Codec.updates None withdrawn
    @ List.concat_map
        (fun (interned, prefixes) -> Codec.updates (Some interned) prefixes)
        (Codec.group_by_attrs routes)
  in
  if msgs <> [] then begin
    List.iter (transmit t Pipeline.Wire_decode lnk.peer) msgs;
    true
  end
  else false

and mrai_arm t lnk interval =
  lnk.mrai_timer <-
    Some
      (Clock.schedule t.clock ~delay:interval (fun () ->
           lnk.mrai_timer <- None;
           if Hashtbl.length lnk.mrai_pending > 0 then begin
             ignore (mrai_flush t lnk);
             mrai_arm t lnk interval
           end))

(* XORP emits one UPDATE per announcement as decisions are made. *)
let announcement_msg (a : Rib_manager.announcement) =
  match a.Rib_manager.ann_attrs with
  | Some interned ->
    Msg.announcement_interned interned [ a.Rib_manager.ann_prefix ]
  | None -> Msg.withdrawal [ a.Rib_manager.ann_prefix ]

(* Route one decision's advertisement toward a peer, immediately or
   through the MRAI buffer.  [w] is the owning batch's work profile;
   advertisements actually held back by an armed timer are counted
   there. *)
let emit_announcement t (w : Pipeline.work) (a : Rib_manager.announcement) =
  match t.mrai with
  | None ->
    transmit t Pipeline.Wire_decode a.Rib_manager.dest (announcement_msg a)
  | Some interval ->
    let lnk = link t a.Rib_manager.dest in
    let armed = Option.is_some lnk.mrai_timer in
    if armed then
      w.Pipeline.w_mrai_buffered <- w.Pipeline.w_mrai_buffered + 1;
    Hashtbl.replace lnk.mrai_pending a.Rib_manager.ann_prefix
      a.Rib_manager.ann_attrs;
    if not armed then begin
      ignore (mrai_flush t lnk);
      mrai_arm t lnk interval
    end

(* Pack a full-table export (Phase 2) into large UPDATEs: consecutive
   announcements sharing an attribute handle ride together (the
   shared-attrs check is an O(1) arena-id comparison), at most 200
   prefixes and {!Msg.max_len} bytes per message. *)
let pack_export anns =
  Codec.updates_of_runs ~max_count:200
    (List.filter_map
       (fun (a : Rib_manager.announcement) ->
         Option.map
           (fun interned -> (a.Rib_manager.ann_prefix, interned))
           a.Rib_manager.ann_attrs)
       anns)

(* ------------------------------------------------------------------ *)
(* The update pipeline                                                 *)
(* ------------------------------------------------------------------ *)

let note_transactions t n =
  Metrics.add t.c_transactions n;
  t.last_transaction_at <- Some (Clock.now t.clock)

(* A RIB outcome produced off the update pipeline (local origination,
   peer-loss repair) is one job where the FIB stage runs: commit the FIB
   deltas, send one UPDATE per announcement, then [on_done]. *)
let fib_job t deltas anns ~on_done =
  let cycles =
    Arch.repair_cycles t.arch deltas ~announcements:(List.length anns)
  in
  Pipeline.run_on t.pipeline Pipeline.Fib_install ~cycles (fun () ->
      ignore (Fib.apply_all t.fib deltas);
      List.iter
        (fun (a : Rib_manager.announcement) ->
          transmit t Pipeline.Fib_install a.Rib_manager.dest
            (announcement_msg a))
        anns;
      on_done ())

(* Originate (or withdraw) a prefix locally — also the re-injection
   path for damping reuse.  The FIB commit and the resulting
   advertisements are a FIB job, like a peer-loss repair:
   origination is operator/IGP work, not an inbound UPDATE, so it stays
   off the update pipeline.  Books one transaction when the commit
   lands (the event a convergence detector keys on). *)
let local_change t ~prefix outcome =
  let now = Clock.now t.clock in
  if t.first_work_at = None then t.first_work_at <- Some now;
  if outcome.Rib_manager.loc_changed then t.route_observer prefix;
  fib_job t outcome.Rib_manager.fib_deltas outcome.Rib_manager.announcements
    ~on_done:(fun () -> note_transactions t 1)

(* Reuse timer: one timer per router, re-armed in place at the earliest
   instant any suppressed route's penalty decays to the reuse threshold.
   Firing re-injects the withheld announcements as FIB jobs (each
   books a transaction, so convergence detection sees the reuse). *)
let rec arm_reuse t =
  match t.damp with
  | None -> ()
  | Some d -> (
    match Damping.next_reuse_at d with
    | None -> Option.iter Clock.cancel t.damp_timer
    | Some at -> (
      (* Fire a hair after the solved reuse instant: at [at] exactly the
         decayed penalty can still sit an ulp above the threshold, and a
         timer that re-arms for the same instant would spin the clock in
         place. *)
      let time = at +. 1e-3 in
      match t.damp_timer with
      | Some h -> Clock.rearm_at t.clock h ~time
      | None ->
        t.damp_timer <-
          Some (Clock.schedule_at t.clock ~time (fun () -> reuse_fire t d))))

and reuse_fire t d =
  let now = Clock.now t.clock in
  List.iter
    (fun (peer, prefix, attrs) ->
      (* A peer that went away while the route sat suppressed keeps
         nothing: its withheld announcement must not resurrect. *)
      match Hashtbl.find_opt t.peers peer.Peer.id with
      | Some ({ session = Some s; _ } as l)
        when Session.state s = Bgp_fsm.Fsm.Established ->
        local_change t ~prefix
          (Rib_manager.announce_interned t.rib ~from:l.peer prefix attrs)
      | _ -> ())
    (Damping.take_reusable d ~now);
  arm_reuse t

(* Prefix-limit protection: a peer announcing more prefixes than
   configured gets a CEASE, the standard operator defense against
   leaks (and against the worm-scale storms of paper section II). *)
let over_prefix_limit t peer_link (u : Msg.update) =
  match peer_link.max_prefixes with
  | None -> false
  | Some limit ->
    (* Project the post-UPDATE table size rather than adding the raw
       NLRI length: re-announced prefixes and duplicates within one
       NLRI don't grow the table, so a peer refreshing its existing
       routes at the limit must not be CEASEd. *)
    Rib_manager.projected_adj_in_size t.rib peer_link.peer
      ~announced:u.Msg.nlri ~withdrawn:u.Msg.withdrawn
    > limit

(* Route one inbound UPDATE — all its NLRI as one batch — through the
   architecture's stage table.  The protocol side effects ride on the
   stage hooks:

   - [Adj_rib_in]'s begin hook checks the prefix limit (here, not at
     decode time: the projection must see every earlier UPDATE from
     this peer already applied, and the pipeline is the point where
     that ordering holds), then runs the RIB machinery, which books
     its outcome into the work profile that prices the decision and
     FIB stages;
   - [Fib_install]'s finish hook commits the deltas to the FIB;
   - [Export_policy]'s finish hook emits the advertisements
     (immediately, or into the MRAI buffers);
   - the done hook books the transactions. *)
let process_update t peer_link ~bytes (u : Msg.update) =
  let from = peer_link.peer in
  let announced = List.length u.Msg.nlri in
  let withdrawn = List.length u.Msg.withdrawn in
  let prefixes = announced + withdrawn in
  let n_peers = max 1 (Rib_manager.peer_count t.rib) in
  (* One attribute group for the shared NLRI handle, one more when
     withdrawals ride along in the same UPDATE. *)
  let attr_groups =
    (if u.Msg.attrs <> None && u.Msg.nlri <> [] then 1 else 0)
    + if u.Msg.withdrawn <> [] then 1 else 0
  in
  let w =
    Pipeline.work ~bytes ~announced ~withdrawn ~peers:n_peers ~attr_groups
      ~src:from.Peer.id
  in
  let deltas = ref [] in
  let anns = ref [] in
  let ceased = ref false in
  let on_begin = function
    | Pipeline.Adj_rib_in ->
      if over_prefix_limit t peer_link u then begin
        (* Session teardown; the FSM sends CEASE and on_down flushes
           the peer's contribution.  The update is NOT applied. *)
        ceased := true;
        Option.iter Session.stop peer_link.session
      end
      else begin
        let d, a = run_rib_update t w ~from u in
        deltas := d;
        anns := a
      end
    | _ -> ()
  in
  let on_finish = function
    | Pipeline.Fib_install -> ignore (Fib.apply_all t.fib !deltas)
    | Pipeline.Export_policy -> List.iter (emit_announcement t w) !anns
    | _ -> ()
  in
  Pipeline.submit t.pipeline w
    { Pipeline.on_begin; on_finish;
      on_done =
        (fun () ->
          if not !ceased then begin
            note_transactions t prefixes;
            (* Any flap this UPDATE charged may have moved the earliest
               reuse instant. *)
            arm_reuse t
          end) }

let on_update t peer_link (u : Msg.update) =
  let now = Clock.now t.clock in
  if t.first_work_at = None then t.first_work_at <- Some now;
  Metrics.incr t.c_updates_rx;
  Metrics.add t.c_withdrawn_rx (List.length u.Msg.withdrawn);
  process_update t peer_link ~bytes:peer_link.last_rx_size u

(* Ship a full advertisement set to one peer, packed into large
   updates, charging per-prefix announcement-building cycles. *)
let send_packed t peer_link anns =
  List.iter
    (fun msg ->
      let cycles = Arch.export_cycles t.arch ~prefixes:(Msg.nlri_count msg) in
      let msg, wire = encode_out msg in
      Pipeline.run_on t.pipeline Pipeline.Wire_decode ~cycles (fun () ->
          ignore (Session.send_encoded (link_session peer_link) msg wire)))
    (pack_export anns)

(* Phase 2: a peer reached Established; if we already hold routes, ship
   the full table.  The neighbor's AS and BGP identifier are taken from
   its OPEN, so a neighbor may be attached before it is known (by port
   alone).  The peer holds no routes yet, so rebinding is safe; a
   declared identity that matches the OPEN is left untouched. *)
let on_established t peer_link =
  (match Bgp_fsm.Fsm.peer_open (Session.fsm (link_session peer_link)) with
  | Some o ->
    let p = peer_link.peer in
    if not (Bgp_route.Asn.equal p.Peer.asn o.Msg.opn_asn
            && Bgp_addr.Ipv4.equal p.Peer.router_id o.Msg.opn_bgp_id)
    then begin
      let p = { p with Peer.asn = o.Msg.opn_asn; router_id = o.Msg.opn_bgp_id } in
      peer_link.peer <- p;
      Rib_manager.rebind_peer t.rib p
    end
  | None -> ());
  Rib_manager.set_peer_up t.rib peer_link.peer true;
  send_packed t peer_link (Rib_manager.export_full t.rib peer_link.peer)

(* RFC 2918: the peer asked for a refresh. Only IPv4 unicast exists
   here; other AFI/SAFI pairs are ignored, as the RFC prescribes for
   unadvertised families. *)
let on_refresh t peer_link ~afi ~safi =
  if afi = 1 && safi = 1 then
    send_packed t peer_link (Rib_manager.refresh t.rib peer_link.peer)

let attach_peer ?max_prefixes ?restart_delay ?(active = false) ?rr_client
    ?import ?export t ~peer ~(link : Link.t) =
  if Hashtbl.mem t.peers peer.Peer.id then
    invalid_arg (Printf.sprintf "Router.attach_peer: duplicate id %d" peer.Peer.id);
  Rib_manager.add_peer ?import ?export ?rr_client ~up:false t.rib peer;
  let cfg =
    { (Bgp_fsm.Fsm.default_config ~asn:(Rib_manager.local_asn t.rib)
         ~router_id:(Rib_manager.router_id t.rib))
      with Bgp_fsm.Fsm.passive = not active }
  in
  let lnk =
    { peer; session = None; last_rx_size = 0; max_prefixes;
      mrai_pending = Hashtbl.create 16; mrai_timer = None }
  in
  let hooks =
    { Session.on_update = (fun u -> on_update t lnk u);
      on_refresh = (fun afi safi -> on_refresh t lnk ~afi ~safi);
      on_established = (fun () -> on_established t lnk);
      on_down =
        (fun _reason ->
          (* Advertisements buffered for the dead session must die with
             it: the next incarnation starts from export_full, and a
             stale armed timer would otherwise flush the old buffer
             into the reborn session.  Clearing [mrai_timer] disarms
             the link; a cancelled handle left there would keep it
             buffering forever with no timer to drain it. *)
          Option.iter Clock.cancel lnk.mrai_timer;
          lnk.mrai_timer <- None;
          Hashtbl.reset lnk.mrai_pending;
          (* Session loss invalidates everything the peer contributed;
             the repair is a FIB job outside the update pipeline, like
             any other burst (paper: "a link is down or another router
             failed"). *)
          let o = Rib_manager.peer_down t.rib lnk.peer in
          List.iter
            (fun d -> t.route_observer (Fib.delta_prefix d))
            o.Rib_manager.fib_deltas;
          (match t.damp with
          | Some d ->
            (* Session loss is a withdrawal flap for every route the
               peer's loss took out of the FIB (RFC 2439 treats a
               session reset like a withdrawal of its routes). *)
            let now = Clock.now t.clock in
            List.iter
              (fun dl ->
                Damping.note_withdraw d ~now ~peer:lnk.peer
                  ~prefix:(Fib.delta_prefix dl))
              o.Rib_manager.fib_deltas;
            arm_reuse t
          | None -> ());
          (match o.Rib_manager.fib_deltas, o.Rib_manager.announcements with
          | [], [] -> ()
          | deltas, anns -> fib_job t deltas anns ~on_done:ignore);
          (* Operator-style automatic recovery (off by default): rearm
             the passive session so a flapping peer can reconnect.  The
             adversarial fault scenarios turn this on. *)
          Option.iter
            (fun delay ->
              ignore
                (Clock.schedule t.clock ~delay (fun () ->
                     match lnk.session with
                     | Some s when Session.state s = Bgp_fsm.Fsm.Idle ->
                       Session.start s
                     | _ -> ())))
            restart_delay);
      on_tx_msg =
        (fun _ bytes ->
          Metrics.incr t.c_msgs_tx;
          Metrics.add t.c_bytes_tx bytes);
      on_rx_msg =
        (fun _ bytes ->
          Metrics.incr t.c_msgs_rx;
          Metrics.add t.c_bytes_rx bytes;
          lnk.last_rx_size <- bytes) }
  in
  let session = Session.create cfg t.clock link hooks in
  (match t.tracer, t.fsm_track with
  | Some tr, Some tk ->
    let peer_name = Printf.sprintf "peer-%d" peer.Peer.id in
    Session.set_transition_observer session (fun before after ->
        Bgp_trace.Tracer.fsm_transition tr tk ~ts:(Clock.now t.clock)
          ~peer:peer_name
          ~from_state:(Bgp_fsm.Fsm.state_name before)
          ~to_state:(Bgp_fsm.Fsm.state_name after))
  | _ -> ());
  lnk.session <- Some session;
  Hashtbl.replace t.peers peer.Peer.id lnk;
  Session.start session

let session_state t peer = Session.state (link_session (link t peer))

let originate ?attrs t ~prefix =
  local_change t ~prefix
    (match attrs with
    | Some attrs -> Rib_manager.inject_local_route t.rib ~prefix ~attrs
    | None ->
      Rib_manager.inject_local t.rib ~prefix
        ~next_hop:(Rib_manager.router_id t.rib))

let withdraw_origin t ~prefix =
  local_change t ~prefix (Rib_manager.withdraw_local t.rib ~prefix)

(* Every job in flight (update batches, CEASE teardowns, FIB jobs,
   packed exports) sits in a stage process's queue or the pacer; on
   free costs there are none. *)
let idle t = Pipeline.idle t.pipeline

let counters t =
  { transactions = Metrics.value t.c_transactions;
    updates_rx = Metrics.value t.c_updates_rx;
    withdrawn_rx = Metrics.value t.c_withdrawn_rx;
    msgs_rx = Metrics.value t.c_msgs_rx;
    msgs_tx = Metrics.value t.c_msgs_tx;
    bytes_rx = Metrics.value t.c_bytes_rx;
    bytes_tx = Metrics.value t.c_bytes_tx;
    first_work_at = t.first_work_at;
    last_transaction_at = t.last_transaction_at }

(* A measurement-phase boundary: the whole registry — router counters,
   RIB work counters, per-stage pipeline accounting — resets as one. *)
let reset_counters t =
  Metrics.reset_all t.metrics;
  t.first_work_at <- None;
  t.last_transaction_at <- None
