module R = Bgp_route.Route
module A = Bgp_route.Attrs
module I = Bgp_route.Attrs.Interned
module M = Bgp_stats.Metrics
module Peer = Bgp_route.Peer
module Policy = Bgp_policy.Policy
module Fib = Bgp_fib.Fib
module P = Bgp_addr.Prefix

type peer_state = {
  mutable peer : Peer.t;
  adj_in : Adj_rib.t;
  adj_out : Adj_rib.t;
  import : Policy.t;
  export : Policy.t;
  rr_client : bool;  (* route-reflection client (RFC 4456) *)
  mutable up : bool;  (* advertise to this peer? *)
}

type aggregate_config = {
  agg_prefix : P.t;
  agg_as_set : bool;
  agg_summary_only : bool;
}

type agg_state = { agg_cfg : aggregate_config; mutable agg_active : bool }

type t = {
  local_asn : Bgp_route.Asn.t;
  router_id : Bgp_addr.Ipv4.t;
  cluster_id : Bgp_addr.Ipv4.t;  (* RFC 4456; defaults to the router id *)
  default_import : Policy.t;
  default_export : Policy.t;
  peer_states : (int, peer_state) Hashtbl.t;
  (* [peer_states] snapshot sorted by {!Peer.compare}, rebuilt on
     {!add_peer}.  Peers are added during setup and then iterated on
     every decision, so caching the order here removes the
     sort-per-walk that [fold_peer_states] used to pay. *)
  mutable peers_sorted : peer_state array;
  incremental : bool;  (* enable the best-vs-challenger fast path *)
  aggregates : agg_state list;
  local_routes : Adj_rib.t;  (* locally originated, keyed like an adj-in *)
  loc : Loc_rib.t;
  (* Work counters live in a shared metrics registry so that a phase
     boundary ({!Bgp_stats.Metrics.reset_all}) clears RIB, router, and
     pipeline accounting together. *)
  c_updates_processed : M.counter;
  c_decisions_run : M.counter;
  c_decision_fastpath : M.counter;
  c_loc_rib_changes : M.counter;
  c_announcements_emitted : M.counter;
  c_policy_units : M.counter;
}

let create ?(import = Policy.accept_all) ?(export = Policy.accept_all)
    ?(aggregates = []) ?cluster_id ?metrics ?(incremental = true) ~local_asn
    ~router_id () =
  let metrics =
    match metrics with Some m -> m | None -> M.create ()
  in
  { local_asn; router_id;
    cluster_id = Option.value ~default:router_id cluster_id;
    default_import = import; default_export = export;
    peer_states = Hashtbl.create 16; peers_sorted = [||]; incremental;
    aggregates =
      List.map (fun agg_cfg -> { agg_cfg; agg_active = false }) aggregates;
    local_routes = Adj_rib.create (); loc = Loc_rib.create ();
    c_updates_processed = M.counter metrics "rib.updates_processed";
    c_decisions_run = M.counter metrics "rib.decisions_run";
    c_decision_fastpath = M.counter metrics "rib.decision_fastpath";
    c_loc_rib_changes = M.counter metrics "rib.loc_rib_changes";
    c_announcements_emitted = M.counter metrics "rib.announcements_emitted";
    c_policy_units = M.counter metrics "rib.policy_units" }

let local_asn t = t.local_asn
let router_id t = t.router_id

let rebuild_peer_cache t =
  let arr =
    Hashtbl.fold (fun _ ps acc -> ps :: acc) t.peer_states []
    |> Array.of_list
  in
  Array.sort (fun a b -> Peer.compare a.peer b.peer) arr;
  t.peers_sorted <- arr

let add_peer ?import ?export ?(rr_client = false) ?(up = true) t peer =
  if Peer.is_local peer then invalid_arg "Rib_manager.add_peer: local pseudo-peer";
  if Hashtbl.mem t.peer_states peer.Peer.id then
    invalid_arg
      (Printf.sprintf "Rib_manager.add_peer: duplicate peer id %d" peer.Peer.id);
  Hashtbl.replace t.peer_states peer.Peer.id
    { peer; adj_in = Adj_rib.create (); adj_out = Adj_rib.create ();
      import = Option.value ~default:t.default_import import;
      export = Option.value ~default:t.default_export export; rr_client; up };
  rebuild_peer_cache t

let peer_state t peer =
  match Hashtbl.find_opt t.peer_states peer.Peer.id with
  | Some ps -> ps
  | None ->
    invalid_arg (Printf.sprintf "Rib_manager: unknown peer id %d" peer.Peer.id)

let rebind_peer t peer =
  let ps = peer_state t peer in
  if Adj_rib.size ps.adj_in > 0 || Adj_rib.size ps.adj_out > 0 then
    invalid_arg
      (Printf.sprintf "Rib_manager.rebind_peer: peer id %d holds routes"
         peer.Peer.id);
  ps.peer <- peer

let peers t = Array.to_list (Array.map (fun ps -> ps.peer) t.peers_sorted)

(* Deterministic peer iteration: every walk over [peer_states] goes
   through the cached sorted array, ordered by peer id, so no output can
   inherit the hash-table's fold order — and no walk pays a sort. *)
let fold_peer_states t f acc =
  Array.fold_left (fun acc ps -> f ps acc) acc t.peers_sorted

let loc_rib t = t.loc
let adj_in_size t peer = Adj_rib.size (peer_state t peer).adj_in
let adj_out_size t peer = Adj_rib.size (peer_state t peer).adj_out

(* The Adj-RIB-In size one UPDATE would leave behind, computed without
   mutating anything.  A re-announced prefix and a duplicate within the
   NLRI contribute zero growth; a withdrawal of a held prefix shrinks
   the projection unless the same message re-announces it (RFC 4271
   processes withdrawals first, so announce wins).  The prefix-limit
   check keys on this so a peer steadily re-announcing its existing
   routes — the subscriber-churn steady state — can never trip a limit
   at or above its live route count. *)
let projected_adj_in_size t peer ~announced ~withdrawn =
  let ps = peer_state t peer in
  let nlri = Hashtbl.create (max 16 (List.length announced)) in
  List.iter (fun p -> Hashtbl.replace nlri p ()) announced;
  let growth =
    Hashtbl.fold
      (fun p () acc -> if Adj_rib.mem ps.adj_in p then acc else acc + 1)
      nlri 0
  in
  let gone = Hashtbl.create (max 16 (List.length withdrawn)) in
  List.iter
    (fun p ->
      if Adj_rib.mem ps.adj_in p && not (Hashtbl.mem nlri p) then
        Hashtbl.replace gone p ())
    withdrawn;
  Adj_rib.size ps.adj_in + growth - Hashtbl.length gone

type announcement = {
  dest : Peer.t;
  ann_prefix : P.t;
  ann_attrs : I.t option;
}

let pp_announcement ppf a =
  match a.ann_attrs with
  | Some attrs ->
    Format.fprintf ppf "to %a: announce %a [%a]" Peer.pp a.dest P.pp
      a.ann_prefix I.pp attrs
  | None ->
    Format.fprintf ppf "to %a: withdraw %a" Peer.pp a.dest P.pp a.ann_prefix

type outcome = {
  adj_in_change : [ `New | `Changed | `Unchanged | `Removed | `Absent | `Loop ];
  loc_changed : bool;
  fib_deltas : Fib.delta list;
  announcements : announcement list;
  candidates : int;
  policy_work : int;
}

let no_op_outcome =
  { adj_in_change = `Unchanged; loc_changed = false; fib_deltas = [];
    announcements = []; candidates = 0; policy_work = 0 }

(* ------------------------------------------------------------------ *)
(* Decision support                                                    *)
(* ------------------------------------------------------------------ *)

let nexthop_of_route r =
  { Fib.nh_addr = (R.attrs r).A.next_hop;
    nh_port = (R.from r).Peer.id }

(* Candidates for [prefix]: the post-import-policy view of every
   Adj-RIB-In entry, plus local routes. Returns the candidate list and
   the policy work expended.  Candidate routes are built from the
   stored handles ({!R.of_interned}) — the decision hot path never
   touches the arena.

   The list comes out in stable source-peer order (local first, then
   ascending peer id), which is {!Decision.select}'s precondition: the
   ranking is not a total order (MED), so a fixed presentation order is
   what keeps selection independent of update arrival order. *)
let candidates_for t prefix =
  let work = ref 0 in
  let cands = ref [] in
  let arr = t.peers_sorted in
  for i = Array.length arr - 1 downto 0 do
    let ps = arr.(i) in
    match Adj_rib.find ps.adj_in prefix with
    | None -> ()
    | Some interned ->
      let r = R.of_interned ~prefix ~interned ~from:ps.peer in
      work := !work + Policy.work_units ps.import r;
      (match Policy.eval ps.import r with
      | Some r' -> cands := r' :: !cands
      | None -> ())
  done;
  (match Adj_rib.find t.local_routes prefix with
  | None -> ()
  | Some interned ->
    cands := R.of_interned ~prefix ~interned ~from:Peer.local :: !cands);
  (!cands, !work)

(* Transform the best route for advertisement to [ps], or None when it
   must not be advertised there (split horizon, communities, policy). *)
(* Is [p] a strict more-specific of [agg]? *)
let strict_under agg p =
  P.subsumes agg.agg_prefix p && P.len p > P.len agg.agg_prefix

let suppressed_by_aggregate t p =
  List.exists
    (fun ag ->
      ag.agg_active && ag.agg_cfg.agg_summary_only && strict_under ag.agg_cfg p)
    t.aggregates

let export_route t ps best work =
  let src = R.from best in
  if Peer.equal src ps.peer then None
  else if suppressed_by_aggregate t (R.prefix best) then None
  else begin
    let attrs = R.attrs best in
    let ebgp = not (Bgp_route.Asn.equal ps.peer.Peer.asn t.local_asn) in
    let src_ibgp =
      (not (Peer.is_local src)) && Bgp_route.Asn.equal src.Peer.asn t.local_asn
    in
    (* IBGP re-advertisement rule (RFC 4271 section 9.2): a route
       learned from an IBGP peer is not passed to other IBGP peers —
       unless this router is a route reflector for one side of the
       exchange (RFC 4456: client routes reflect to everyone, non-client
       routes reflect to clients). *)
    let reflection =
      if ebgp || not src_ibgp then `Plain
      else begin
        let src_client =
          match Hashtbl.find_opt t.peer_states src.Peer.id with
          | Some sps -> sps.rr_client
          | None -> false
        in
        if src_client || ps.rr_client then `Reflect else `Forbidden
      end
    in
    if reflection = `Forbidden then None
    else if
      A.has_community Bgp_route.Community.no_advertise attrs
      || (ebgp && A.has_community Bgp_route.Community.no_export attrs)
    then None
    else begin
      work := !work + Policy.work_units ps.export best;
      match Policy.eval ps.export best with
      | None -> None
      | Some r ->
        let attrs = R.attrs r in
        let rewritten =
          if ebgp then
            (* EBGP export: prepend our AS, next-hop-self, drop the
               IBGP-only LOCAL_PREF, and do not propagate a received
               MED to other EBGP neighbors (RFC 4271 section 5.1.4). *)
            Some
              { (A.prepend_as t.local_asn attrs) with
                A.next_hop = t.router_id; local_pref = None; med = None }
          else None
        in
        let rewritten =
          match reflection with
          | `Reflect ->
            (* RFC 4456 section 8: stamp the originator once, grow the
               cluster list on every reflection hop. *)
            let base = Option.value ~default:attrs rewritten in
            Some
              { base with
                A.originator_id =
                  Some
                    (Option.value ~default:src.Peer.router_id
                       base.A.originator_id);
                cluster_list = t.cluster_id :: base.A.cluster_list }
          | `Plain | `Forbidden -> rewritten
        in
        (* Untouched attributes reuse the route's handle; only a
           rewrite pays an arena lookup. *)
        Some
          (match rewritten with
          | None -> R.interned r
          | Some a -> I.intern a)
    end
  end

(* Diff desired advertisement against Adj-RIB-Out and produce the
   necessary announcement, updating the Adj-RIB-Out. *)
let sync_adj_out ps prefix desired =
  match desired with
  | Some attrs ->
    (match Adj_rib.set ps.adj_out prefix attrs with
    | `New | `Changed ->
      Some { dest = ps.peer; ann_prefix = prefix; ann_attrs = Some attrs }
    | `Unchanged -> None)
  | None ->
    if Adj_rib.remove ps.adj_out prefix then
      Some { dest = ps.peer; ann_prefix = prefix; ann_attrs = None }
    else None

(* Re-run the decision process for [prefix] and propagate the result to
   Loc-RIB, FIB deltas, and Adj-RIBs-Out. *)
let redecide t prefix =
  M.incr t.c_decisions_run;
  let cands, import_work = candidates_for t prefix in
  let best = Decision.select ~local_asn:t.local_asn cands in
  let work = ref import_work in
  let loc_changed, fib_deltas =
    match best with
    | None ->
      (match Loc_rib.remove t.loc prefix with
      | None -> (false, [])
      | Some _ -> (true, [ Fib.Withdraw prefix ]))
    | Some r ->
      let nh = nexthop_of_route r in
      let previous = Loc_rib.find t.loc prefix in
      (match Loc_rib.set t.loc r with
      | `Unchanged -> (false, [])
      | `New -> (true, [ Fib.Add (prefix, nh) ])
      | `Changed ->
        let delta =
          (* The forwarding table only holds next hops: a best-route
             change that keeps the next hop (e.g. same peer, new
             attributes) does not touch the FIB — the distinction
             scenarios 5/6 vs 7/8 hinge on. *)
          match previous with
          | Some old when Fib.nexthop_equal (nexthop_of_route old) nh -> []
          | _ -> [ Fib.Replace (prefix, nh) ]
        in
        (true, delta))
  in
  if loc_changed then M.incr t.c_loc_rib_changes;
  let announcements =
    if not loc_changed then []
    else
      fold_peer_states t
        (fun ps acc ->
          if not ps.up then acc
          else
            let desired =
              match best with
              | None -> None
              | Some r -> export_route t ps r work
            in
            match sync_adj_out ps prefix desired with
            | Some ann -> ann :: acc
            | None -> acc)
        []
      |> List.sort (fun a b -> Peer.compare a.dest b.dest)
  in
  M.incr ~by:(List.length announcements) t.c_announcements_emitted;
  M.incr ~by:!work t.c_policy_units;
  (loc_changed, fib_deltas, announcements, List.length cands, !work)

(* ------------------------------------------------------------------ *)
(* Route aggregation (RFC 4271 section 9.2.2.2 / CIDR)                 *)
(* ------------------------------------------------------------------ *)

(* Contributor routes: Loc-RIB entries strictly inside the aggregate. *)
let aggregate_contributors t agg =
  Loc_rib.fold
    (fun r acc -> if strict_under agg (R.prefix r) then r :: acc else acc)
    t.loc []

let aggregate_attrs t agg contributors =
  let as_path =
    if agg.agg_as_set then begin
      let asns =
        List.concat_map
          (fun r -> Bgp_route.As_path.to_asn_list (R.attrs r).A.as_path)
          contributors
        |> List.sort_uniq Bgp_route.Asn.compare
      in
      match asns with
      | [] -> Bgp_route.As_path.empty
      | _ -> Bgp_route.As_path.of_segments [ Bgp_route.As_path.Set asns ]
    end
    else Bgp_route.As_path.empty
  in
  (* ATOMIC_AGGREGATE marks that path information was dropped, i.e.
     contributors had AS paths we are not carrying in an AS_SET. *)
  let atomic =
    (not agg.agg_as_set)
    && List.exists
         (fun r -> Bgp_route.As_path.length (R.attrs r).A.as_path > 0)
         contributors
  in
  A.make ~atomic_aggregate:atomic
    ~aggregator:(t.local_asn, t.router_id)
    ~as_path ~next_hop:t.router_id ()

(* Withdraw every exported more-specific of a freshly active
   summary-only aggregate (or re-export them on deactivation). *)
let sweep_specifics t agg ~suppress =
  let work = ref 0 in
  let anns =
    fold_peer_states t
      (fun ps acc ->
        if not ps.up then acc
        else
          List.fold_left
            (fun acc best ->
              let p = R.prefix best in
              if not (strict_under agg p) then acc
              else
                let desired =
                  if suppress then None else export_route t ps best work
                in
                match sync_adj_out ps p desired with
                | Some ann -> ann :: acc
                | None -> acc)
            acc (Loc_rib.to_list t.loc))
      []
    |> List.sort (fun a b ->
           match Peer.compare a.dest b.dest with
           | 0 -> P.compare a.ann_prefix b.ann_prefix
           | c -> c)
  in
  M.incr ~by:!work t.c_policy_units;
  M.incr ~by:(List.length anns) t.c_announcements_emitted;
  anns

(* Re-evaluate one aggregate; returns the extra deltas/announcements it
   produced (activation, update, or deactivation). *)
let rec update_aggregate t ag =
  let agg = ag.agg_cfg in
  match aggregate_contributors t agg with
  | [] ->
    if Adj_rib.remove t.local_routes agg.agg_prefix then begin
      ag.agg_active <- false;
      let _, fd, ann, _, _ = redecide t agg.agg_prefix in
      let unsuppressed =
        if agg.agg_summary_only then sweep_specifics t agg ~suppress:false
        else []
      in
      let cfd, cann = eval_aggregates t agg.agg_prefix in
      (fd @ cfd, ann @ unsuppressed @ cann)
    end
    else ([], [])
  | contributors -> (
    let attrs = I.intern (aggregate_attrs t agg contributors) in
    match Adj_rib.set t.local_routes agg.agg_prefix attrs with
    | `Unchanged -> ([], [])
    | (`New | `Changed) as change ->
      let newly_active = not ag.agg_active in
      ag.agg_active <- true;
      ignore change;
      let _, fd, ann, _, _ = redecide t agg.agg_prefix in
      let suppressed =
        if newly_active && agg.agg_summary_only then
          sweep_specifics t agg ~suppress:true
        else []
      in
      let cfd, cann = eval_aggregates t agg.agg_prefix in
      (fd @ cfd, ann @ suppressed @ cann))

(* Evaluate every configured aggregate that strictly covers [prefix].
   Terminates because an aggregate is strictly shorter than its
   contributors, so the recursion climbs toward /0. *)
and eval_aggregates t prefix =
  List.fold_left
    (fun (fd, ann) ag ->
      if strict_under ag.agg_cfg prefix then begin
        let fd', ann' = update_aggregate t ag in
        (fd @ fd', ann @ ann')
      end
      else (fd, ann))
    ([], []) t.aggregates

let finish t
    (adj_in_change :
      [ `New | `Changed | `Unchanged | `Removed | `Absent | `Loop ]) prefix =
  M.incr t.c_updates_processed;
  match adj_in_change with
  | `Unchanged | `Absent ->
    { no_op_outcome with adj_in_change }
  | (`New | `Changed | `Removed | `Loop) as c ->
    let loc_changed, fib_deltas, announcements, candidates, policy_work =
      redecide t prefix
    in
    let agg_deltas, agg_anns =
      if loc_changed then eval_aggregates t prefix else ([], [])
    in
    { adj_in_change = c; loc_changed;
      fib_deltas = fib_deltas @ agg_deltas;
      announcements = announcements @ agg_anns; candidates; policy_work }

(* ------------------------------------------------------------------ *)
(* Incremental decision fast path                                      *)
(* ------------------------------------------------------------------ *)

(* Soundness rests on {!Decision.select} being a left fold over the
   candidates in stable source-peer order: once the fold passes the
   winning route's position, the running best never changes again, so
   every candidate at a later position lost (or would lose) to it.
   Hence, when an update arrives from peer [p] and the current Loc-RIB
   best comes from a strictly earlier source ([Peer.compare src p < 0],
   which includes locally originated bests):

   - an announce only needs best-vs-challenger: if the post-import
     challenger loses (or is filtered), the fold over the full
     candidate set would return the same best — [p]'s previous entry,
     if any, had also lost, so replacing one loser with another leaves
     the result intact;
   - a withdraw removes a candidate that had lost, so the result is
     intact unconditionally.

   Everything else — best from [p] itself or from a later source, no
   current best, a challenger that wins — falls back to the full
   {!redecide}.  The fast path leaves Loc-RIB, FIB, and Adj-RIBs-Out
   untouched by construction (loc_changed is false), so aggregates
   need no re-evaluation either. *)

let fast_outcome t change ~candidates ~policy_work =
  M.incr t.c_updates_processed;
  M.incr t.c_decision_fastpath;
  if policy_work > 0 then M.incr ~by:policy_work t.c_policy_units;
  { adj_in_change = change; loc_changed = false; fib_deltas = [];
    announcements = []; candidates; policy_work }

let try_fast_announce t ps prefix interned change =
  if not t.incremental then None
  else
    match Loc_rib.find t.loc prefix with
    | None -> None
    | Some best ->
      if Peer.compare (R.from best) ps.peer >= 0 then None
      else begin
        let challenger = R.of_interned ~prefix ~interned ~from:ps.peer in
        let work = Policy.work_units ps.import challenger in
        match Policy.eval ps.import challenger with
        | None -> Some (fast_outcome t change ~candidates:1 ~policy_work:work)
        | Some c ->
          if Decision.better ~local_asn:t.local_asn c best then None
          else Some (fast_outcome t change ~candidates:2 ~policy_work:work)
      end

let try_fast_withdraw t ps prefix =
  if not t.incremental then None
  else
    match Loc_rib.find t.loc prefix with
    | None -> None
    | Some best ->
      if Peer.compare (R.from best) ps.peer >= 0 then None
      else Some (fast_outcome t `Removed ~candidates:0 ~policy_work:0)

(* RFC 4456 section 8 loop protection: our own ORIGINATOR_ID or
   cluster id in an incoming route means a reflection loop. *)
let reflection_loop t (attrs : A.t) =
  Option.fold ~none:false ~some:(Bgp_addr.Ipv4.equal t.router_id)
    attrs.A.originator_id
  || List.exists (Bgp_addr.Ipv4.equal t.cluster_id) attrs.A.cluster_list

(* The loop guards (§9.1.2 AS loop, RFC 4456 §8 reflection loop) look
   only at the attribute set, so a grouped announce evaluates them once
   per UPDATE rather than once per NLRI prefix. *)
let rejects_attrs t (attrs : A.t) =
  Bgp_route.As_path.contains t.local_asn attrs.A.as_path
  || reflection_loop t attrs

let announce_one t ps ~looping prefix interned =
  if looping then
    (* AS loop (§9.1.2): the route is excluded from consideration; any
       older route from this peer for the prefix is dropped too. *)
    let removed = Adj_rib.remove ps.adj_in prefix in
    if removed then finish t `Loop prefix
    else begin
      M.incr t.c_updates_processed;
      { no_op_outcome with adj_in_change = `Loop }
    end
  else
    match Adj_rib.set ps.adj_in prefix interned with
    | `Unchanged -> finish t `Unchanged prefix
    | (`New | `Changed) as change -> (
      match try_fast_announce t ps prefix interned change with
      | Some outcome -> outcome
      | None ->
        finish t
          (change
            :> [ `New | `Changed | `Unchanged | `Removed | `Absent | `Loop ])
          prefix)

let announce_interned t ~from prefix interned =
  let ps = peer_state t from in
  let looping = rejects_attrs t (I.value interned) in
  announce_one t ps ~looping prefix interned

let announce t ~from prefix attrs =
  announce_interned t ~from prefix (I.intern attrs)

let announce_group t ~from ~each prefixes interned =
  let ps = peer_state t from in
  let looping = rejects_attrs t (I.value interned) in
  List.iter
    (fun prefix -> each prefix (announce_one t ps ~looping prefix interned))
    prefixes

let withdraw t ~from prefix =
  let ps = peer_state t from in
  if Adj_rib.remove ps.adj_in prefix then
    match try_fast_withdraw t ps prefix with
    | Some outcome -> outcome
    | None -> finish t `Removed prefix
  else finish t `Absent prefix

let withdraw_local t ~prefix =
  if Adj_rib.remove t.local_routes prefix then finish t `Removed prefix
  else begin
    M.incr t.c_updates_processed;
    { no_op_outcome with adj_in_change = `Absent }
  end

let inject_local_route t ~prefix ~attrs =
  finish t
    (Adj_rib.set t.local_routes prefix (I.intern attrs)
      :> [ `New | `Changed | `Unchanged | `Removed | `Absent | `Loop ])
    prefix

let inject_local t ~prefix ~next_hop =
  inject_local_route t ~prefix
    ~attrs:(A.make ~as_path:Bgp_route.As_path.empty ~next_hop ())

let set_peer_up t peer up = (peer_state t peer).up <- up

let export_full t peer =
  let ps = peer_state t peer in
  let work = ref 0 in
  let anns =
    Loc_rib.fold
      (fun best acc ->
        let desired = export_route t ps best work in
        match sync_adj_out ps (R.prefix best) desired with
        | Some ann -> ann :: acc
        | None -> acc)
      t.loc []
  in
  M.incr ~by:!work t.c_policy_units;
  M.incr ~by:(List.length anns) t.c_announcements_emitted;
  List.sort (fun a b -> P.compare a.ann_prefix b.ann_prefix) anns

let refresh t peer =
  (* RFC 2918: forget what we believe the peer knows and resend. *)
  Adj_rib.clear (peer_state t peer).adj_out;
  export_full t peer

let peer_down t peer =
  let ps = peer_state t peer in
  ps.up <- false;
  let contributed = Adj_rib.prefixes ps.adj_in in
  Adj_rib.clear ps.adj_in;
  Adj_rib.clear ps.adj_out;
  let merged =
    List.fold_left
      (fun acc prefix ->
        let loc_changed, fib_deltas, announcements, candidates, policy_work =
          redecide t prefix
        in
        { adj_in_change = `Removed;
          loc_changed = acc.loc_changed || loc_changed;
          fib_deltas = acc.fib_deltas @ fib_deltas;
          announcements = acc.announcements @ announcements;
          candidates = acc.candidates + candidates;
          policy_work = acc.policy_work + policy_work })
      { no_op_outcome with adj_in_change = `Removed }
      contributed
  in
  M.incr ~by:(List.length contributed) t.c_updates_processed;
  merged

type stats = {
  updates_processed : int;
  decisions_run : int;
  decision_fastpath : int;
  loc_rib_changes : int;
  announcements_emitted : int;
  policy_units : int;
}

let stats (t : t) =
  { updates_processed = M.value t.c_updates_processed;
    decisions_run = M.value t.c_decisions_run;
    decision_fastpath = M.value t.c_decision_fastpath;
    loc_rib_changes = M.value t.c_loc_rib_changes;
    announcements_emitted = M.value t.c_announcements_emitted;
    policy_units = M.value t.c_policy_units }
