module R = Bgp_route.Route
module A = Bgp_route.Attrs
module I = Bgp_route.Attrs.Interned
module M = Bgp_stats.Metrics
module Peer = Bgp_route.Peer
module Policy = Bgp_policy.Policy
module Fib = Bgp_fib.Fib
module P = Bgp_addr.Prefix
module T = Prefix_table

type peer_state = {
  mutable peer : Peer.t;
  slot : int;  (* this peer's slot pair in every table entry *)
  mutable adj_in : int;  (* Adj-RIB-In size *)
  mutable adj_out : int;  (* Adj-RIB-Out size *)
  import : Policy.t;
  export : Policy.t;
  rr_client : bool;  (* route-reflection client (RFC 4456) *)
  mutable up : bool;  (* advertise to this peer? *)
  mutable nh : Fib.nexthop;
      (* the last next hop installed via this peer, shared by every FIB
         entry that uses it until the address changes *)
}

type aggregate_config = {
  agg_prefix : P.t;
  agg_as_set : bool;
  agg_summary_only : bool;
}

type agg_state = { agg_cfg : aggregate_config; mutable agg_active : bool }

type t = {
  local_asn : Bgp_route.Asn.t;
  router_id : Bgp_addr.Ipv4.t;  (* also the RFC 4456 cluster id *)
  default_import : Policy.t;
  default_export : Policy.t;
  peer_states : (int, peer_state) Hashtbl.t;
  (* [peer_states] snapshot sorted by {!Peer.compare}, rebuilt on
     {!add_peer}.  Peers are added during setup and then iterated on
     every decision, so caching the order here removes the
     sort-per-walk that [fold_peer_states] used to pay. *)
  mutable peers_sorted : peer_state array;
  local_ps : peer_state;  (* the source of locally originated routes *)
  incremental : bool;  (* enable the best-vs-challenger fast path *)
  aggregates : agg_state list;
  table : T.t;  (* the Adj-RIBs-In/Out, local routes and Loc-RIB *)
  export_memo : I.t I.Tbl.t;
      (* post-export-policy handle -> its plain EBGP rewrite *)
  (* Scratch of the operation in progress, so the per-prefix path
     returns no tuples: policy units spent, announcements built, and the
     decision's winner and candidate count. *)
  mutable work : int;
  mutable anns : int;
  mutable win : I.t;  (* [I.none] when no candidate survived import *)
  mutable win_ps : peer_state;
  mutable cands : int;
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

let new_peer_state ?(import = Policy.accept_all) ?(export = Policy.accept_all)
    ?(rr_client = false) ?(up = true) ~slot peer =
  { peer; slot; adj_in = 0; adj_out = 0; import; export; rr_client; up;
    nh = { Fib.nh_addr = Bgp_addr.Ipv4.zero; nh_port = peer.Peer.id } }

let create ?(import = Policy.accept_all) ?(export = Policy.accept_all)
    ?(aggregates = []) ?metrics ?(incremental = true) ~local_asn ~router_id
    () =
  let metrics =
    match metrics with Some m -> m | None -> M.create ()
  in
  let local_ps = new_peer_state ~slot:(-1) Peer.local in
  { local_asn; router_id;
    default_import = import; default_export = export;
    peer_states = Hashtbl.create 16; peers_sorted = [||]; local_ps;
    incremental;
    aggregates =
      List.map (fun agg_cfg -> { agg_cfg; agg_active = false }) aggregates;
    table = T.create (); export_memo = I.Tbl.create 8;
    work = 0; anns = 0; win = I.none; win_ps = local_ps; cands = 0;
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

let add_peer ?import ?export ?rr_client ?up t peer =
  if Peer.is_local peer then invalid_arg "Rib_manager.add_peer: local pseudo-peer";
  if Hashtbl.mem t.peer_states peer.Peer.id then
    invalid_arg
      (Printf.sprintf "Rib_manager.add_peer: duplicate peer id %d" peer.Peer.id);
  (* Slots are numbered in registration order; the table re-strides its
     entries to make room for the new pair. *)
  let slot = Hashtbl.length t.peer_states in
  Hashtbl.replace t.peer_states peer.Peer.id
    (new_peer_state
       ~import:(Option.value ~default:t.default_import import)
       ~export:(Option.value ~default:t.default_export export)
       ?rr_client ?up ~slot peer);
  T.set_peers t.table (slot + 1);
  rebuild_peer_cache t

let peer_state t peer =
  match Hashtbl.find t.peer_states peer.Peer.id with
  | ps -> ps
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Rib_manager: unknown peer id %d" peer.Peer.id)

let rebind_peer t peer =
  let ps = peer_state t peer in
  if ps.adj_in > 0 || ps.adj_out > 0 then
    invalid_arg
      (Printf.sprintf "Rib_manager.rebind_peer: peer id %d holds routes"
         peer.Peer.id);
  ps.peer <- peer

let peer_count t = Array.length t.peers_sorted

(* Deterministic peer iteration: every walk over [peer_states] goes
   through the cached sorted array, ordered by peer id, so no output can
   inherit the hash-table's fold order — and no walk pays a sort. *)
let fold_peer_states t f acc =
  Array.fold_left (fun acc ps -> f ps acc) acc t.peers_sorted

let loc_rib t = t.table
let adj_in_size t peer = (peer_state t peer).adj_in
let adj_out_size t peer = (peer_state t peer).adj_out

let in_slot ps = 2 * ps.slot
let out_slot ps = (2 * ps.slot) + 1
let holds_in t ps p = T.slot t.table (T.find t.table p) (in_slot ps) != I.none

(* Clear [ps]'s Adj-RIB-In entry for [e]; [false] when it held none. *)
let remove_in t ps e =
  T.slot t.table e (in_slot ps) != I.none
  && begin
    T.clear_slot t.table e (in_slot ps);
    ps.adj_in <- ps.adj_in - 1;
    true
  end

let remove_out t ps e =
  if T.slot t.table e (out_slot ps) != I.none then begin
    T.clear_slot t.table e (out_slot ps);
    ps.adj_out <- ps.adj_out - 1
  end

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
      (fun p () acc -> if holds_in t ps p then acc else acc + 1)
      nlri 0
  in
  let gone = Hashtbl.create (max 16 (List.length withdrawn)) in
  List.iter
    (fun p ->
      if holds_in t ps p && not (Hashtbl.mem nlri p) then
        Hashtbl.replace gone p ())
    withdrawn;
  ps.adj_in + growth - Hashtbl.length gone

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

(* What [sync_adj_out] returns when the Adj-RIB-Out already holds the
   desired state; compared with [==]. *)
let no_ann = { dest = Peer.local; ann_prefix = P.default; ann_attrs = None }

type change = [ `New | `Changed | `Unchanged | `Removed | `Absent | `Loop ]

type outcome = {
  adj_in_change : change;
  loc_changed : bool;
  fib_deltas : Fib.delta list;
  announcements : announcement list;
  candidates : int;
}

let no_op_outcome =
  { adj_in_change = `Unchanged; loc_changed = false; fib_deltas = [];
    announcements = []; candidates = 0 }

(* Outcomes that change nothing past the Adj-RIB-In are immutable
   values shared by every update they describe, so the no-change paths
   (the fast path, an unchanged or absent update, a decision that keeps
   its best) allocate no record.  Counts at or above [shared_max] are
   rare enough to pay for a fresh one. *)
let shared_max = 8

let changes : change array =
  [| `New; `Changed; `Unchanged; `Removed; `Absent; `Loop |]

let change_index : change -> int = function
  | `New -> 0
  | `Changed -> 1
  | `Unchanged -> 2
  | `Removed -> 3
  | `Absent -> 4
  | `Loop -> 5

let shared_outcomes =
  Array.init
    (Array.length changes * shared_max)
    (fun i ->
      { no_op_outcome with
        adj_in_change = changes.(i / shared_max);
        candidates = i mod shared_max })

let quiet_outcome change ~candidates =
  if candidates < shared_max then
    shared_outcomes.((change_index change * shared_max) + candidates)
  else { no_op_outcome with adj_in_change = change; candidates }

(* ------------------------------------------------------------------ *)
(* Decision support                                                    *)
(* ------------------------------------------------------------------ *)

(* The FIB next hop of a route from [ps] with next-hop address [addr]:
   the peer's cached record while the address is unchanged. *)
let nexthop ps addr =
  if Bgp_addr.Ipv4.equal ps.nh.Fib.nh_addr addr then ps.nh
  else begin
    let nh = { Fib.nh_addr = addr; nh_port = ps.peer.Peer.id } in
    ps.nh <- nh;
    nh
  end

let same_nexthop r (nh : Fib.nexthop) =
  Bgp_addr.Ipv4.equal (R.attrs r).A.next_hop nh.Fib.nh_addr
  && (R.from r).Peer.id = nh.Fib.nh_port

(* [r] through [policy]: the post-policy handle, or [I.none] when
   rejected.  Adds the policy units to [t.work].  Callers test for
   accept-all first: it costs one unit and needs no route. *)
let apply_policy t policy r =
  let r, units = Policy.apply policy r in
  t.work <- t.work + units;
  match r with Some r -> R.interned r | None -> I.none

(* The post-import-policy view of the Adj-RIB-In handle [h] that [ps]
   holds for [prefix]. *)
let import t prefix ps h =
  if Policy.is_accept_all ps.import then begin
    t.work <- t.work + 1;
    h
  end
  else apply_policy t ps.import (R.of_interned ~prefix ~interned:h ~from:ps.peer)

(* The decision process in place: {!Decision.select}'s left fold over
   the post-import candidates of [e] in stable source-peer order (the
   local route, then [peers_sorted]), run on the stored handles with
   {!Decision.better_handle}, so no candidate route or list is built.
   Leaves the winner in [t.win]/[t.win_ps] ([I.none] when no candidate
   survives) and the candidate count in [t.cands]. *)
let decide t prefix e =
  let local = T.local t.table e in
  t.win <- local;
  t.win_ps <- t.local_ps;
  t.cands <- (if local == I.none then 0 else 1);
  let peers = t.peers_sorted in
  for i = 0 to Array.length peers - 1 do
    let ps = Array.unsafe_get peers i in
    let h = T.slot t.table e (in_slot ps) in
    if h != I.none then begin
      let h = import t prefix ps h in
      if h != I.none then begin
        t.cands <- t.cands + 1;
        if
          t.win == I.none
          || Decision.better_handle ~local_asn:t.local_asn h ps.peer t.win
               t.win_ps.peer
        then begin
          t.win <- h;
          t.win_ps <- ps
        end
      end
    end
  done

(* Is [p] a strict more-specific of [agg]? *)
let strict_under agg p =
  P.subsumes agg.agg_prefix p && P.len p > P.len agg.agg_prefix

let has_aggregates t = match t.aggregates with [] -> false | _ :: _ -> true

let suppressed_by_aggregate t p =
  List.exists
    (fun ag ->
      ag.agg_active && ag.agg_cfg.agg_summary_only && strict_under ag.agg_cfg p)
    t.aggregates

(* EBGP export: prepend our AS, next-hop-self, drop the IBGP-only
   LOCAL_PREF, and do not propagate a received MED to other EBGP
   neighbors (RFC 4271 section 5.1.4).  The result depends only on the
   post-policy attributes, so it is memoised per manager.  [I.hit]
   admits a memo entry only if [I.intern] would have returned that very
   handle, and records the same arena stats, so the memo is invisible
   to arena accounting, and it never serves a handle from before an
   [I.clear]. *)
let ebgp_attrs t h =
  { (A.prepend_as t.local_asn (I.value h)) with
    A.next_hop = t.router_id; local_pref = None; med = None }

let memo_rewrite t h =
  let r = I.intern (ebgp_attrs t h) in
  I.Tbl.replace t.export_memo h r;
  r

let ebgp_rewrite t h =
  match I.Tbl.find t.export_memo h with
  | r when I.hit r -> r
  | _ ->
    (* Filled before a clear: no entry can be trusted any more. *)
    I.Tbl.reset t.export_memo;
    memo_rewrite t h
  | exception Not_found -> memo_rewrite t h

(* The handle to advertise [best] to [ps] with, or [I.none] when it must
   not be advertised there (split horizon, aggregation, IBGP rules,
   communities, policy).  Adds the export policy units to [t.work]. *)
let export_route t ps best =
  let src = R.from best in
  if Peer.equal src ps.peer then I.none
  else if has_aggregates t && suppressed_by_aggregate t (R.prefix best) then
    I.none
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
    match reflection with
    | `Forbidden -> I.none
    | (`Plain | `Reflect) as reflection ->
      if
        A.has_community Bgp_route.Community.no_advertise attrs
        || (ebgp && A.has_community Bgp_route.Community.no_export attrs)
      then I.none
      else begin
        let h =
          if Policy.is_accept_all ps.export then begin
            t.work <- t.work + 1;
            R.interned best
          end
          else apply_policy t ps.export best
        in
        (* Untouched attributes reuse the route's handle; an EBGP
           rewrite is a memo lookup and only a reflection rewrite pays
           an arena lookup. *)
        if h == I.none then I.none
        else if ebgp then ebgp_rewrite t h
        else
          match reflection with
          | `Reflect ->
            (* RFC 4456 section 8: stamp the originator once, grow the
               cluster list on every reflection hop. *)
            let attrs = I.value h in
            I.intern
              { attrs with
                A.originator_id =
                  Some
                    (Option.value ~default:src.Peer.router_id
                       attrs.A.originator_id);
                cluster_list = t.router_id :: attrs.A.cluster_list }
          | `Plain -> h
      end
  end

(* Diff the desired advertisement ([I.none]: none) against [ps]'s
   Adj-RIB-Out slot of [e], update the slot, and return the
   announcement that makes the peer agree, or [no_ann]. *)
let sync_adj_out t ps prefix e desired =
  let old = T.slot t.table e (out_slot ps) in
  if desired != I.none then
    if old != I.none && I.equal old desired then no_ann
    else begin
      if old == I.none then ps.adj_out <- ps.adj_out + 1;
      T.set_slot t.table e (out_slot ps) desired;
      { dest = ps.peer; ann_prefix = prefix; ann_attrs = Some desired }
    end
  else if old == I.none then no_ann
  else begin
    remove_out t ps e;
    { dest = ps.peer; ann_prefix = prefix; ann_attrs = None }
  end

(* Advertise [best] ([T.no_route]: withdraw) to every up peer from the
   [i]-th on.  Peers go in ascending order — the order their rewrites
   are interned in — and the list comes out in that order. *)
let rec exports t prefix e best i =
  if i = Array.length t.peers_sorted then []
  else
    let ps = t.peers_sorted.(i) in
    if not ps.up then exports t prefix e best (i + 1)
    else
      let desired =
        if best == T.no_route then I.none else export_route t ps best
      in
      let ann = sync_adj_out t ps prefix e desired in
      if ann == no_ann then exports t prefix e best (i + 1)
      else begin
        t.anns <- t.anns + 1;
        ann :: exports t prefix e best (i + 1)
      end

(* A decision that kept the best: reclaim the entry if nothing is left
   in it. *)
let kept t change e =
  T.remove_if_empty t.table e;
  M.add t.c_policy_units t.work;
  quiet_outcome change ~candidates:t.cands

(* A decision that moved the best to [best]: export it, then reclaim
   the entry if nothing is left in it. *)
let moved t change prefix e best fib_deltas =
  M.incr t.c_loc_rib_changes;
  t.anns <- 0;
  let announcements = exports t prefix e best 0 in
  T.remove_if_empty t.table e;
  M.add t.c_announcements_emitted t.anns;
  M.add t.c_policy_units t.work;
  { adj_in_change = change; loc_changed = true; fib_deltas; announcements;
    candidates = t.cands }

(* Re-run the decision process for [prefix] (entry [e]) and propagate
   the result to Loc-RIB, FIB deltas, and Adj-RIBs-Out.  [e] is not
   valid afterwards: the entry may have been reclaimed.  A route is
   built only for a winner that differs from the stored best. *)
let redecide t change prefix e =
  M.incr t.c_decisions_run;
  t.work <- 0;
  decide t prefix e;
  let win = t.win and ps = t.win_ps in
  let previous = T.best t.table e in
  if win == I.none then
    if T.clear_best t.table e then
      moved t change prefix e T.no_route [ Fib.Withdraw prefix ]
    else kept t change e
  else if
    previous != T.no_route
    && Peer.equal (R.from previous) ps.peer
    && I.equal (R.interned previous) win
  then kept t change e
  else begin
    let best = R.of_interned ~prefix ~interned:win ~from:ps.peer in
    T.set_best t.table e best;
    let nh = nexthop ps (I.value win).A.next_hop in
    moved t change prefix e best
      (if previous == T.no_route then [ Fib.Add (prefix, nh) ]
       else if same_nexthop previous nh then
         (* The forwarding table only holds next hops: a best-route
            change that keeps the next hop (e.g. same peer, new
            attributes) does not touch the FIB — the distinction
            scenarios 5/6 vs 7/8 hinge on. *)
         []
       else [ Fib.Replace (prefix, nh) ])
  end

let set_local t e attrs =
  let old = T.local t.table e in
  if old == I.none then begin
    T.set_local t.table e attrs;
    `New
  end
  else if I.equal old attrs then `Unchanged
  else begin
    T.set_local t.table e attrs;
    `Changed
  end

(* ------------------------------------------------------------------ *)
(* Route aggregation (RFC 4271 section 9.2.2.2 / CIDR)                 *)
(* ------------------------------------------------------------------ *)

(* Contributor routes: Loc-RIB entries strictly inside the aggregate. *)
let aggregate_contributors t agg =
  Loc_rib.fold
    (fun r acc -> if strict_under agg (R.prefix r) then r :: acc else acc)
    t.table []

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
  t.work <- 0;
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
                  if suppress then I.none else export_route t ps best
                in
                let ann = sync_adj_out t ps p (T.find t.table p) desired in
                if ann == no_ann then acc else ann :: acc)
            acc (Loc_rib.to_list t.table))
      []
    |> List.sort (fun a b ->
           match Peer.compare a.dest b.dest with
           | 0 -> P.compare a.ann_prefix b.ann_prefix
           | c -> c)
  in
  M.add t.c_policy_units t.work;
  M.add t.c_announcements_emitted (List.length anns);
  anns

(* Re-evaluate one aggregate; returns the extra deltas/announcements it
   produced (activation, update, or deactivation). *)
let rec update_aggregate t ag =
  let agg = ag.agg_cfg in
  match aggregate_contributors t agg with
  | [] ->
    let e = T.find t.table agg.agg_prefix in
    if T.local t.table e != I.none then begin
      T.set_local t.table e I.none;
      ag.agg_active <- false;
      let o = redecide t `Removed agg.agg_prefix e in
      let unsuppressed =
        if agg.agg_summary_only then sweep_specifics t agg ~suppress:false
        else []
      in
      let cfd, cann = eval_aggregates t agg.agg_prefix in
      (o.fib_deltas @ cfd, o.announcements @ unsuppressed @ cann)
    end
    else ([], [])
  | contributors -> (
    let attrs = I.intern (aggregate_attrs t agg contributors) in
    let e = T.find_or_add t.table agg.agg_prefix in
    match set_local t e attrs with
    | `Unchanged -> ([], [])
    | (`New | `Changed) as c ->
      let newly_active = not ag.agg_active in
      ag.agg_active <- true;
      let o = redecide t (c :> change) agg.agg_prefix e in
      let suppressed =
        if newly_active && agg.agg_summary_only then
          sweep_specifics t agg ~suppress:true
        else []
      in
      let cfd, cann = eval_aggregates t agg.agg_prefix in
      (o.fib_deltas @ cfd, o.announcements @ suppressed @ cann))

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

let finish t (change : change) prefix e =
  M.incr t.c_updates_processed;
  match change with
  | `Unchanged | `Absent -> quiet_outcome change ~candidates:0
  | `New | `Changed | `Removed | `Loop ->
    let o = redecide t change prefix e in
    if (not o.loc_changed) || not (has_aggregates t) then o
    else
      let agg_deltas, agg_anns = eval_aggregates t prefix in
      { o with
        fib_deltas = o.fib_deltas @ agg_deltas;
        announcements = o.announcements @ agg_anns }

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

(* What the fast path returns when it cannot decide; compared with
   [==]. *)
let no_fast = { no_op_outcome with candidates = -1 }

let fast_outcome t change ~candidates =
  M.incr t.c_updates_processed;
  M.incr t.c_decision_fastpath;
  M.add t.c_policy_units t.work;
  quiet_outcome change ~candidates

(* [e]'s best when it comes from a strictly earlier source than [ps] in
   decision order, else [T.no_route]. *)
let earlier_best t ps e =
  let best = T.best t.table e in
  if
    t.incremental && best != T.no_route
    && Peer.compare (R.from best) ps.peer < 0
  then best
  else T.no_route

let try_fast_announce t ps prefix e interned change =
  let best = earlier_best t ps e in
  if best == T.no_route then no_fast
  else begin
    t.work <- 0;
    let challenger = import t prefix ps interned in
    if challenger == I.none then fast_outcome t change ~candidates:1
    else if
      Decision.better_handle ~local_asn:t.local_asn challenger ps.peer
        (R.interned best) (R.from best)
    then no_fast
    else fast_outcome t change ~candidates:2
  end

let try_fast_withdraw t ps e =
  if earlier_best t ps e == T.no_route then no_fast
  else begin
    t.work <- 0;
    fast_outcome t `Removed ~candidates:0
  end

let rec has_id id = function
  | [] -> false
  | x :: rest -> Bgp_addr.Ipv4.equal x id || has_id id rest

(* RFC 4456 section 8 loop protection: our own ORIGINATOR_ID or
   cluster id (the router id) in an incoming route means a reflection
   loop.  It runs once per grouped announce, so it builds no closure. *)
let reflection_loop t (attrs : A.t) =
  (match attrs.A.originator_id with
  | Some o -> Bgp_addr.Ipv4.equal o t.router_id
  | None -> false)
  || has_id t.router_id attrs.A.cluster_list

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
    let e = T.find t.table prefix in
    if remove_in t ps e then finish t `Loop prefix e
    else begin
      M.incr t.c_updates_processed;
      quiet_outcome `Loop ~candidates:0
    end
  else
    let e = T.find_or_add t.table prefix in
    let old = T.slot t.table e (in_slot ps) in
    if old != I.none && I.equal old interned then finish t `Unchanged prefix e
    else begin
      T.set_slot t.table e (in_slot ps) interned;
      let change =
        if old == I.none then begin
          ps.adj_in <- ps.adj_in + 1;
          `New
        end
        else `Changed
      in
      let o = try_fast_announce t ps prefix e interned change in
      if o != no_fast then o else finish t change prefix e
    end

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
  let e = T.find t.table prefix in
  if remove_in t ps e then
    let o = try_fast_withdraw t ps e in
    if o != no_fast then o else finish t `Removed prefix e
  else finish t `Absent prefix e

let withdraw_local t ~prefix =
  let e = T.find t.table prefix in
  if T.local t.table e != I.none then begin
    T.set_local t.table e I.none;
    finish t `Removed prefix e
  end
  else begin
    M.incr t.c_updates_processed;
    quiet_outcome `Absent ~candidates:0
  end

let inject_local_route t ~prefix ~attrs =
  let e = T.find_or_add t.table prefix in
  finish t (set_local t e (I.intern attrs) :> change) prefix e

let inject_local t ~prefix ~next_hop =
  inject_local_route t ~prefix
    ~attrs:(A.make ~as_path:Bgp_route.As_path.empty ~next_hop ())

let set_peer_up t peer up = (peer_state t peer).up <- up

let export_full t peer =
  let ps = peer_state t peer in
  t.work <- 0;
  (* Rewrites are interned in the table's id order; the announcements
     come out in prefix order. *)
  let anns =
    T.filter_map_ordered t.table (fun e ->
        let best = T.best t.table e in
        if best == T.no_route then None
        else
          let ann =
            sync_adj_out t ps (T.prefix t.table e) e (export_route t ps best)
          in
          if ann == no_ann then None else Some ann)
  in
  M.add t.c_policy_units t.work;
  M.add t.c_announcements_emitted (List.length anns);
  anns

(* The prefixes whose entries [holds], in prefix order, collected
   before any entry is cleared or reclaimed: the table is not mutated
   mid-walk. *)
let held_prefixes t holds =
  T.filter_map_ordered t.table (fun e ->
      if holds e then Some (T.prefix t.table e) else None)

let refresh t peer =
  (* RFC 2918: forget what we believe the peer knows and resend. *)
  let ps = peer_state t peer in
  List.iter
    (fun p ->
      let e = T.find t.table p in
      remove_out t ps e;
      T.remove_if_empty t.table e)
    (held_prefixes t (fun e -> T.slot t.table e (out_slot ps) != I.none));
  export_full t peer

let peer_down t peer =
  let ps = peer_state t peer in
  ps.up <- false;
  let contributed =
    List.filter_map
      (fun p ->
        let e = T.find t.table p in
        let held_in = remove_in t ps e in
        remove_out t ps e;
        if held_in then Some p
        else begin
          T.remove_if_empty t.table e;
          None
        end)
      (held_prefixes t (fun e ->
           T.slot t.table e (in_slot ps) != I.none
           || T.slot t.table e (out_slot ps) != I.none))
  in
  (* Entries are looked up again per decision: a decision can reclaim
     an entry, which renumbers another. *)
  let loc_changed = ref false and deltas = ref [] and anns = ref [] in
  let candidates = ref 0 in
  List.iter
    (fun prefix ->
      let o = redecide t `Removed prefix (T.find t.table prefix) in
      loc_changed := !loc_changed || o.loc_changed;
      deltas := List.rev_append o.fib_deltas !deltas;
      anns := List.rev_append o.announcements !anns;
      candidates := !candidates + o.candidates)
    contributed;
  M.add t.c_updates_processed (List.length contributed);
  { adj_in_change = `Removed; loc_changed = !loc_changed;
    fib_deltas = List.rev !deltas; announcements = List.rev !anns;
    candidates = !candidates }

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith ("Rib_manager: " ^^ fmt) in
  let width = 2 * Array.length t.peers_sorted in
  let routes = ref 0 in
  let held = Array.make width 0 in
  T.iter
    (fun e ->
      let p = T.prefix t.table e in
      if T.find t.table p <> e then fail "index lost %s" (P.to_string p);
      if T.is_empty t.table e then fail "empty entry left for %s" (P.to_string p);
      let best = T.best t.table e in
      if best != T.no_route then begin
        incr routes;
        if not (P.equal (R.prefix best) p) then
          fail "best for %s under %s" (P.to_string (R.prefix best)) (P.to_string p)
      end;
      for i = 0 to width - 1 do
        if T.slot t.table e i != I.none then held.(i) <- held.(i) + 1
      done)
    t.table;
  if !routes <> Loc_rib.size t.table then
    fail "Loc-RIB size %d, %d bests" (Loc_rib.size t.table) !routes;
  Array.iter
    (fun ps ->
      if held.(in_slot ps) <> ps.adj_in || held.(out_slot ps) <> ps.adj_out
      then
        fail "peer %d: Adj-RIB sizes %d/%d, slots held %d/%d" ps.peer.Peer.id
          ps.adj_in ps.adj_out held.(in_slot ps) held.(out_slot ps))
    t.peers_sorted

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
