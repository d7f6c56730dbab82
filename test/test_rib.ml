open Bgp_rib
module A = Bgp_route.Attrs
module R = Bgp_route.Route
module As_path = Bgp_route.As_path
module Asn = Bgp_route.Asn
module Peer = Bgp_route.Peer
module Community = Bgp_route.Community
module Fib = Bgp_fib.Fib
module Policy = Bgp_policy.Policy

let ip = Bgp_addr.Ipv4.of_string_exn
let pfx = Bgp_addr.Prefix.of_string_exn
let asn = Asn.of_int

let local_asn = asn 65000
let router_id = ip "192.0.2.254"

let peer1 =
  Peer.make ~id:0 ~asn:(asn 65001) ~router_id:(ip "192.0.2.1") ~addr:(ip "192.0.2.1")

let peer2 =
  Peer.make ~id:1 ~asn:(asn 65002) ~router_id:(ip "192.0.2.2") ~addr:(ip "192.0.2.2")

let ibgp_peer =
  Peer.make ~id:2 ~asn:local_asn ~router_id:(ip "192.0.2.3") ~addr:(ip "192.0.2.3")

let attrs ?origin ?med ?local_pref ?(communities = []) ~nh path =
  A.make ?origin ?med ?local_pref ~communities
    ~as_path:(As_path.of_asns (List.map asn path))
    ~next_hop:(ip nh) ()

let route ~prefix ~from ?origin ?med ?local_pref ?(communities = []) ~nh path =
  R.make ~prefix:(pfx prefix)
    ~attrs:(attrs ?origin ?med ?local_pref ~communities ~nh path)
    ~from

(* ------------------------------------------------------------------ *)
(* Decision process                                                    *)
(* ------------------------------------------------------------------ *)

let check_winner name expected_rule winner loser =
  let c, rule = Decision.compare_routes ~local_asn winner loser in
  if c <= 0 then Alcotest.failf "%s: wrong winner" name;
  Alcotest.(check string) (name ^ " rule")
    (Format.asprintf "%a" Decision.pp_rule expected_rule)
    (Format.asprintf "%a" Decision.pp_rule rule);
  (* Antisymmetry *)
  let c', _ = Decision.compare_routes ~local_asn loser winner in
  if c' >= 0 then Alcotest.failf "%s: not antisymmetric" name

let test_decision_local_pref () =
  check_winner "local pref" Decision.Local_pref
    (route ~prefix:"10.0.0.0/8" ~from:peer1 ~local_pref:200 ~nh:"192.0.2.1"
       [ 65001; 1; 2; 3 ])
    (route ~prefix:"10.0.0.0/8" ~from:peer2 ~local_pref:100 ~nh:"192.0.2.2" [ 65002 ])

let test_decision_default_local_pref () =
  (* Missing LOCAL_PREF counts as 100. *)
  check_winner "default lp" Decision.Local_pref
    (route ~prefix:"10.0.0.0/8" ~from:peer1 ~local_pref:150 ~nh:"192.0.2.1"
       [ 65001; 9; 9 ])
    (route ~prefix:"10.0.0.0/8" ~from:peer2 ~nh:"192.0.2.2" [ 65002 ])

let test_decision_path_length () =
  check_winner "path length" Decision.Path_length
    (route ~prefix:"10.0.0.0/8" ~from:peer2 ~nh:"192.0.2.2" [ 65002; 7 ])
    (route ~prefix:"10.0.0.0/8" ~from:peer1 ~nh:"192.0.2.1" [ 65001; 7; 8 ])

let test_decision_origin () =
  check_winner "origin" Decision.Origin
    (route ~prefix:"10.0.0.0/8" ~from:peer1 ~origin:A.Igp ~nh:"192.0.2.1" [ 65001 ])
    (route ~prefix:"10.0.0.0/8" ~from:peer2 ~origin:A.Incomplete ~nh:"192.0.2.2"
       [ 65002 ])

let test_decision_med_same_neighbor () =
  (* Same neighbor AS: lower MED wins. *)
  check_winner "med" Decision.Med
    (route ~prefix:"10.0.0.0/8" ~from:peer1 ~med:10 ~nh:"192.0.2.1" [ 7018; 1 ])
    (route ~prefix:"10.0.0.0/8" ~from:peer2 ~med:50 ~nh:"192.0.2.2" [ 7018; 2 ])

let test_decision_med_different_neighbor () =
  (* Different neighbor AS: MED is skipped, falls through to router id. *)
  let a = route ~prefix:"10.0.0.0/8" ~from:peer1 ~med:500 ~nh:"192.0.2.1" [ 7018; 1 ] in
  let b = route ~prefix:"10.0.0.0/8" ~from:peer2 ~med:10 ~nh:"192.0.2.2" [ 701; 2 ] in
  let c, rule = Decision.compare_routes ~local_asn a b in
  Alcotest.(check bool) "peer1 wins by router id" true (c > 0);
  Alcotest.(check string) "rule" "router-id"
    (Format.asprintf "%a" Decision.pp_rule rule)

let test_decision_missing_med_is_best () =
  check_winner "missing med" Decision.Med
    (route ~prefix:"10.0.0.0/8" ~from:peer2 ~nh:"192.0.2.2" [ 7018; 2 ])
    (route ~prefix:"10.0.0.0/8" ~from:peer1 ~med:5 ~nh:"192.0.2.1" [ 7018; 1 ])

let test_decision_ebgp_over_ibgp () =
  check_winner "ebgp" Decision.Ebgp_over_ibgp
    (route ~prefix:"10.0.0.0/8" ~from:peer2 ~nh:"192.0.2.2" [ 65002 ])
    (route ~prefix:"10.0.0.0/8" ~from:ibgp_peer ~nh:"192.0.2.3" [ 65009 ])

let test_decision_local_wins () =
  let local = R.local ~prefix:(pfx "10.0.0.0/8") ~next_hop:(ip "0.0.0.1") in
  check_winner "local" Decision.Local_origin local
    (route ~prefix:"10.0.0.0/8" ~from:peer1 ~local_pref:10000 ~nh:"192.0.2.1" [ 1 ])

let test_decision_router_id_tiebreak () =
  check_winner "router id" Decision.Router_id
    (route ~prefix:"10.0.0.0/8" ~from:peer1 ~nh:"192.0.2.1" [ 65001 ])
    (route ~prefix:"10.0.0.0/8" ~from:peer2 ~nh:"192.0.2.2" [ 65002 ])

let test_select_permutation_invariant () =
  let rs =
    [ route ~prefix:"10.0.0.0/8" ~from:peer1 ~nh:"192.0.2.1" [ 65001; 4; 5 ];
      route ~prefix:"10.0.0.0/8" ~from:peer2 ~nh:"192.0.2.2" [ 65002; 4 ];
      route ~prefix:"10.0.0.0/8" ~from:ibgp_peer ~nh:"192.0.2.3" [ 65009; 4; 5; 6 ]
    ]
  in
  let best = Decision.select ~local_asn rs in
  (match best with
  | Some r -> Alcotest.(check int) "shortest path wins" 1 (R.from r).Peer.id
  | None -> Alcotest.fail "select none");
  (* every permutation gives the same winner *)
  let rec perms = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          List.map (fun rest -> x :: rest) (perms (List.filter (fun y -> y != x) l)))
        l
  in
  List.iter
    (fun p ->
      match Decision.select ~local_asn p, best with
      | Some a, Some b ->
        if not (R.equal a b) then Alcotest.fail "permutation changed winner"
      | _ -> Alcotest.fail "select none")
    (perms rs);
  Alcotest.(check bool) "empty" true (Decision.select ~local_asn [] = None)

(* ------------------------------------------------------------------ *)
(* Rib_manager                                                         *)
(* ------------------------------------------------------------------ *)

let fresh ?import ?export () =
  let t = Rib_manager.create ?import ?export ~local_asn ~router_id () in
  Rib_manager.add_peer t peer1;
  Rib_manager.add_peer t peer2;
  t

let test_first_announcement () =
  let t = fresh () in
  let o =
    Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
      (attrs ~nh:"192.0.2.1" [ 65001; 7 ])
  in
  Alcotest.(check bool) "new" true (o.Rib_manager.adj_in_change = `New);
  Alcotest.(check bool) "loc changed" true o.Rib_manager.loc_changed;
  (match o.Rib_manager.fib_deltas with
  | [ Fib.Add (p, nh) ] ->
    Alcotest.(check string) "prefix" "203.0.113.0/24" (Bgp_addr.Prefix.to_string p);
    Alcotest.(check int) "port" 0 nh.Fib.nh_port;
    Alcotest.(check string) "nh" "192.0.2.1" (Bgp_addr.Ipv4.to_string nh.Fib.nh_addr)
  | _ -> Alcotest.fail "expected one Add");
  (* announced to peer2 only (split horizon), with our AS prepended and
     next-hop-self *)
  (match o.Rib_manager.announcements with
  | [ { Rib_manager.dest; ann_attrs = Some a; _ } ] ->
    let a = A.Interned.value a in
    Alcotest.(check int) "dest" 1 dest.Peer.id;
    Alcotest.(check (option int)) "first hop is us" (Some 65000)
      (Option.map Asn.to_int (As_path.first_hop a.A.as_path));
    Alcotest.(check string) "next hop self" "192.0.2.254"
      (Bgp_addr.Ipv4.to_string a.A.next_hop)
  | _ -> Alcotest.fail "expected one announcement to peer2");
  Alcotest.(check int) "adj_in" 1 (Rib_manager.adj_in_size t peer1);
  Alcotest.(check int) "adj_out peer2" 1 (Rib_manager.adj_out_size t peer2);
  Alcotest.(check int) "adj_out peer1 empty" 0 (Rib_manager.adj_out_size t peer1)

let test_duplicate_announcement_noop () =
  let t = fresh () in
  let a = attrs ~nh:"192.0.2.1" [ 65001; 7 ] in
  ignore (Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24") a);
  let o = Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24") a in
  Alcotest.(check bool) "unchanged" true (o.Rib_manager.adj_in_change = `Unchanged);
  Alcotest.(check bool) "no loc change" false o.Rib_manager.loc_changed;
  Alcotest.(check int) "no deltas" 0 (List.length o.Rib_manager.fib_deltas);
  Alcotest.(check int) "no announcements" 0 (List.length o.Rib_manager.announcements)

let test_longer_path_no_fib_change () =
  (* Scenario 5/6 analog: second peer offers a worse route. *)
  let t = fresh () in
  ignore
    (Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
       (attrs ~nh:"192.0.2.1" [ 65001; 7 ]));
  let o =
    Rib_manager.announce t ~from:peer2 (pfx "203.0.113.0/24")
      (attrs ~nh:"192.0.2.2" [ 65002; 7; 8; 9 ])
  in
  Alcotest.(check bool) "adj-in new" true (o.Rib_manager.adj_in_change = `New);
  Alcotest.(check bool) "loc unchanged" false o.Rib_manager.loc_changed;
  Alcotest.(check int) "no fib deltas" 0 (List.length o.Rib_manager.fib_deltas);
  Alcotest.(check int) "no announcements" 0 (List.length o.Rib_manager.announcements);
  Alcotest.(check int) "candidates considered" 2 o.Rib_manager.candidates

let test_shorter_path_replaces () =
  (* Scenario 7/8 analog: second peer offers a better route. *)
  let t = fresh () in
  ignore
    (Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
       (attrs ~nh:"192.0.2.1" [ 65001; 7; 8; 9 ]));
  let o =
    Rib_manager.announce t ~from:peer2 (pfx "203.0.113.0/24")
      (attrs ~nh:"192.0.2.2" [ 65002; 7 ])
  in
  Alcotest.(check bool) "loc changed" true o.Rib_manager.loc_changed;
  (match o.Rib_manager.fib_deltas with
  | [ Fib.Replace (_, nh) ] -> Alcotest.(check int) "new port" 1 nh.Fib.nh_port
  | _ -> Alcotest.fail "expected Replace");
  (* peer1 gets the new best; peer2 gets a withdraw of the stale
     advertisement (the new best came from peer2 itself). *)
  let to1 = List.filter (fun a -> a.Rib_manager.dest.Peer.id = 0) o.Rib_manager.announcements in
  let to2 = List.filter (fun a -> a.Rib_manager.dest.Peer.id = 1) o.Rib_manager.announcements in
  (match to1 with
  | [ { Rib_manager.ann_attrs = Some _; _ } ] -> ()
  | _ -> Alcotest.fail "peer1 should get announcement");
  match to2 with
  | [ { Rib_manager.ann_attrs = None; _ } ] -> ()
  | _ -> Alcotest.fail "peer2 should get withdraw"

let test_withdraw_falls_back () =
  let t = fresh () in
  ignore
    (Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
       (attrs ~nh:"192.0.2.1" [ 65001; 7 ]));
  ignore
    (Rib_manager.announce t ~from:peer2 (pfx "203.0.113.0/24")
       (attrs ~nh:"192.0.2.2" [ 65002; 7; 8 ]));
  let o = Rib_manager.withdraw t ~from:peer1 (pfx "203.0.113.0/24") in
  Alcotest.(check bool) "removed" true (o.Rib_manager.adj_in_change = `Removed);
  Alcotest.(check bool) "loc changed" true o.Rib_manager.loc_changed;
  (match o.Rib_manager.fib_deltas with
  | [ Fib.Replace (_, nh) ] -> Alcotest.(check int) "fallback port" 1 nh.Fib.nh_port
  | _ -> Alcotest.fail "expected Replace to fallback");
  (* withdraw of the last route clears everything *)
  let o2 = Rib_manager.withdraw t ~from:peer2 (pfx "203.0.113.0/24") in
  (match o2.Rib_manager.fib_deltas with
  | [ Fib.Withdraw _ ] -> ()
  | _ -> Alcotest.fail "expected Withdraw");
  Alcotest.(check int) "loc empty" 0 (Loc_rib.size (Rib_manager.loc_rib t));
  (* withdrawing again is a no-op *)
  let o3 = Rib_manager.withdraw t ~from:peer2 (pfx "203.0.113.0/24") in
  Alcotest.(check bool) "absent" true (o3.Rib_manager.adj_in_change = `Absent)

let test_loop_detection () =
  let t = fresh () in
  let o =
    Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
      (attrs ~nh:"192.0.2.1" [ 65001; 65000; 7 ])
  in
  Alcotest.(check bool) "loop" true (o.Rib_manager.adj_in_change = `Loop);
  Alcotest.(check int) "nothing stored" 0 (Rib_manager.adj_in_size t peer1);
  Alcotest.(check int) "loc empty" 0 (Loc_rib.size (Rib_manager.loc_rib t));
  (* a looping re-announcement of an existing route removes it *)
  ignore
    (Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
       (attrs ~nh:"192.0.2.1" [ 65001; 7 ]));
  let o2 =
    Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
      (attrs ~nh:"192.0.2.1" [ 65001; 65000 ])
  in
  Alcotest.(check bool) "loop drop" true (o2.Rib_manager.adj_in_change = `Loop);
  Alcotest.(check int) "route dropped" 0 (Loc_rib.size (Rib_manager.loc_rib t))

let test_local_injection_wins () =
  let t = fresh () in
  ignore
    (Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
       (attrs ~nh:"192.0.2.1" [ 65001 ]));
  let o = Rib_manager.inject_local t ~prefix:(pfx "203.0.113.0/24") ~next_hop:(ip "0.0.0.1") in
  Alcotest.(check bool) "loc changed" true o.Rib_manager.loc_changed;
  match Loc_rib.find (Rib_manager.loc_rib t) (pfx "203.0.113.0/24") with
  | Some r -> Alcotest.(check bool) "local" true (Peer.is_local (R.from r))
  | None -> Alcotest.fail "loc missing"

let test_export_full () =
  let t = fresh () in
  let table = Bgp_addr.Prefix_gen.table ~seed:5 ~n:50 () in
  Array.iter
    (fun p ->
      ignore (Rib_manager.announce t ~from:peer1 p (attrs ~nh:"192.0.2.1" [ 65001; 3 ])))
    table;
  (* peer2's adj-out was already populated incrementally; flush it by
     using a third, late-joining peer as in Phase 2. *)
  let peer3 =
    Peer.make ~id:7 ~asn:(asn 65007) ~router_id:(ip "192.0.2.7") ~addr:(ip "192.0.2.7")
  in
  Rib_manager.add_peer t peer3;
  let anns = Rib_manager.export_full t peer3 in
  Alcotest.(check int) "all announced" 50 (List.length anns);
  Alcotest.(check int) "adj out" 50 (Rib_manager.adj_out_size t peer3);
  List.iter
    (fun a ->
      match a.Rib_manager.ann_attrs with
      | Some at ->
        let at = A.Interned.value at in
        Alcotest.(check (option int)) "prepended" (Some 65000)
          (Option.map Asn.to_int (As_path.first_hop at.A.as_path))
      | None -> Alcotest.fail "export_full must not withdraw")
    anns;
  (* idempotent: syncing again announces nothing new *)
  Alcotest.(check int) "idempotent" 0 (List.length (Rib_manager.export_full t peer3))

let test_refresh_resends () =
  let t = fresh () in
  let table = Bgp_addr.Prefix_gen.table ~seed:8 ~n:20 () in
  Array.iter
    (fun p ->
      ignore (Rib_manager.announce t ~from:peer1 p (attrs ~nh:"192.0.2.1" [ 65001 ])))
    table;
  Alcotest.(check int) "adj-out populated" 20 (Rib_manager.adj_out_size t peer2);
  (* a second export_full is a no-op; refresh forces the resend *)
  Alcotest.(check int) "export_full idempotent" 0
    (List.length (Rib_manager.export_full t peer2));
  let again = Rib_manager.refresh t peer2 in
  Alcotest.(check int) "refresh resends all" 20 (List.length again);
  Alcotest.(check int) "adj-out restored" 20 (Rib_manager.adj_out_size t peer2)

let test_peer_down () =
  let t = fresh () in
  let table = Bgp_addr.Prefix_gen.table ~seed:6 ~n:30 () in
  Array.iter
    (fun p ->
      ignore (Rib_manager.announce t ~from:peer1 p (attrs ~nh:"192.0.2.1" [ 65001 ])))
    table;
  (* ten of them also known via peer2 (longer path) *)
  Array.iteri
    (fun i p ->
      if i < 10 then
        ignore
          (Rib_manager.announce t ~from:peer2 p (attrs ~nh:"192.0.2.2" [ 65002; 9 ])))
    table;
  let o = Rib_manager.peer_down t peer1 in
  Alcotest.(check int) "adj_in flushed" 0 (Rib_manager.adj_in_size t peer1);
  Alcotest.(check int) "loc keeps fallbacks" 10 (Loc_rib.size (Rib_manager.loc_rib t));
  let withdraws =
    List.filter (function Fib.Withdraw _ -> true | _ -> false) o.Rib_manager.fib_deltas
  in
  let replaces =
    List.filter (function Fib.Replace _ -> true | _ -> false) o.Rib_manager.fib_deltas
  in
  Alcotest.(check int) "withdraws" 20 (List.length withdraws);
  Alcotest.(check int) "replaces" 10 (List.length replaces)

let test_import_policy_filters () =
  let reject_peer1 =
    Policy.make ~name:"no-65001"
      [ { Policy.term_name = "kill"; conds = [ Policy.Neighbor_as (asn 65001) ];
          verdict = Policy.Reject }
      ]
  in
  let t = Rib_manager.create ~import:reject_peer1 ~local_asn ~router_id () in
  Rib_manager.add_peer t peer1;
  Rib_manager.add_peer t peer2;
  let o =
    Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
      (attrs ~nh:"192.0.2.1" [ 65001; 7 ])
  in
  Alcotest.(check bool) "stored in adj-in" true (o.Rib_manager.adj_in_change = `New);
  Alcotest.(check bool) "but not selected" false o.Rib_manager.loc_changed;
  Alcotest.(check int) "loc empty" 0 (Loc_rib.size (Rib_manager.loc_rib t));
  (* peer2's route passes *)
  let o2 =
    Rib_manager.announce t ~from:peer2 (pfx "203.0.113.0/24")
      (attrs ~nh:"192.0.2.2" [ 65002; 7; 8; 9 ])
  in
  Alcotest.(check bool) "peer2 selected" true o2.Rib_manager.loc_changed

let test_import_policy_local_pref_overrides () =
  (* Classic Gao-Rexford: prefer customer (peer2) via LOCAL_PREF even
     though its path is longer. *)
  let prefer_peer2 =
    Policy.make ~name:"prefer-65002"
      [ { Policy.term_name = "customer"; conds = [ Policy.Neighbor_as (asn 65002) ];
          verdict = Policy.Accept [ Policy.Set_local_pref 200 ] }
      ]
  in
  let t = Rib_manager.create ~import:prefer_peer2 ~local_asn ~router_id () in
  Rib_manager.add_peer t peer1;
  Rib_manager.add_peer t peer2;
  ignore
    (Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
       (attrs ~nh:"192.0.2.1" [ 65001 ]));
  ignore
    (Rib_manager.announce t ~from:peer2 (pfx "203.0.113.0/24")
       (attrs ~nh:"192.0.2.2" [ 65002; 7; 8; 9 ]));
  match Loc_rib.find (Rib_manager.loc_rib t) (pfx "203.0.113.0/24") with
  | Some r -> Alcotest.(check int) "peer2 won" 1 (R.from r).Peer.id
  | None -> Alcotest.fail "loc missing"

let test_no_export_community () =
  let t = fresh () in
  let o =
    Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
      (attrs ~communities:[ Community.no_export ] ~nh:"192.0.2.1" [ 65001 ])
  in
  Alcotest.(check bool) "selected" true o.Rib_manager.loc_changed;
  Alcotest.(check int) "not exported to ebgp peer" 0
    (List.length o.Rib_manager.announcements)

let test_stats_accumulate () =
  let t = fresh () in
  ignore
    (Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
       (attrs ~nh:"192.0.2.1" [ 65001 ]));
  ignore (Rib_manager.withdraw t ~from:peer1 (pfx "203.0.113.0/24"));
  let s = Rib_manager.stats t in
  Alcotest.(check int) "updates" 2 s.Rib_manager.updates_processed;
  Alcotest.(check int) "decisions" 2 s.Rib_manager.decisions_run;
  Alcotest.(check int) "loc changes" 2 s.Rib_manager.loc_rib_changes;
  Alcotest.(check bool) "announcements" true (s.Rib_manager.announcements_emitted >= 2);
  Alcotest.(check bool) "policy work" true (s.Rib_manager.policy_units > 0)

(* ------------------------------------------------------------------ *)
(* Route reflection (RFC 4456) and IBGP rules                          *)
(* ------------------------------------------------------------------ *)

let ibgp_a =
  Peer.make ~id:10 ~asn:local_asn ~router_id:(ip "10.0.0.10") ~addr:(ip "10.0.0.10")

let ibgp_b =
  Peer.make ~id:11 ~asn:local_asn ~router_id:(ip "10.0.0.11") ~addr:(ip "10.0.0.11")

let ibgp_c =
  Peer.make ~id:12 ~asn:local_asn ~router_id:(ip "10.0.0.12") ~addr:(ip "10.0.0.12")

(* RFC 4456 §9: between reflected routes the ORIGINATOR_ID stands in
   for the advertising peer's BGP identifier, and a shorter CLUSTER_LIST
   wins before the peer address is consulted.  In both pairs below, the
   advertising peers' identifiers alone would pick the other route. *)
let reflected ~from ~originator ~clusters =
  R.make ~prefix:(pfx "10.0.0.0/8") ~from
    ~attrs:
      (A.make ~originator_id:(ip originator) ~cluster_list:(List.map ip clusters)
         ~as_path:(As_path.of_asns [ asn 65100 ]) ~next_hop:(ip "10.9.9.9") ())

let test_reflection_tie_breaks () =
  (* ibgp_a has the lower router id, but ibgp_b's route originated at
     the lower ORIGINATOR_ID. *)
  let via_a = reflected ~from:ibgp_a ~originator:"10.1.0.9" ~clusters:[ "10.2.0.1" ]
  and via_b = reflected ~from:ibgp_b ~originator:"10.1.0.3" ~clusters:[ "10.2.0.1" ] in
  check_winner "originator id" Decision.Router_id via_b via_a;
  (* One originator: the shorter reflection path wins, whatever the
     advertising peers' identifiers. *)
  let long = reflected ~from:ibgp_a ~originator:"10.1.0.3" ~clusters:[ "10.2.0.1"; "10.2.0.2" ]
  and short = reflected ~from:ibgp_b ~originator:"10.1.0.3" ~clusters:[ "10.2.0.7" ] in
  check_winner "cluster list" Decision.Cluster_list short long;
  (* The manager's in-place decision ranks them the same way. *)
  let t = Rib_manager.create ~local_asn ~router_id () in
  Rib_manager.add_peer t ibgp_a;
  Rib_manager.add_peer t ibgp_b;
  List.iter
    (fun (winner, loser) ->
      List.iter
        (fun r -> ignore (Rib_manager.announce t ~from:(R.from r) (R.prefix r) (R.attrs r)))
        [ loser; winner ];
      match Loc_rib.find (Rib_manager.loc_rib t) (pfx "10.0.0.0/8") with
      | Some best -> Alcotest.(check bool) "manager agrees" true (R.equal best winner)
      | None -> Alcotest.fail "no best")
    [ (via_b, via_a); (short, long) ]

let test_ibgp_no_readvertisement () =
  (* Base RFC 4271 rule: IBGP-learned routes never go to IBGP peers. *)
  let t = Rib_manager.create ~local_asn ~router_id () in
  Rib_manager.add_peer t ibgp_a;
  Rib_manager.add_peer t ibgp_b;
  Rib_manager.add_peer t peer1 (* EBGP *);
  let o =
    Rib_manager.announce t ~from:ibgp_a (pfx "203.0.113.0/24")
      (attrs ~local_pref:100 ~nh:"10.0.0.10" [ 64999 ])
  in
  let dests = List.map (fun a -> a.Rib_manager.dest.Peer.id) o.Rib_manager.announcements in
  Alcotest.(check (list int)) "only the EBGP peer hears it" [ 0 ] dests

let test_reflection_client_to_all () =
  let t = Rib_manager.create ~local_asn ~router_id () in
  Rib_manager.add_peer ~rr_client:true t ibgp_a;
  Rib_manager.add_peer t ibgp_b (* non-client *);
  Rib_manager.add_peer ~rr_client:true t ibgp_c (* another client *);
  let o =
    Rib_manager.announce t ~from:ibgp_a (pfx "203.0.113.0/24")
      (attrs ~nh:"10.0.0.10" [ 64999 ])
  in
  let dests =
    List.sort compare
      (List.map (fun a -> a.Rib_manager.dest.Peer.id) o.Rib_manager.announcements)
  in
  (* client route reflects to non-clients and other clients alike *)
  Alcotest.(check (list int)) "reflected to b and c" [ 11; 12 ] dests;
  List.iter
    (fun a ->
      match a.Rib_manager.ann_attrs with
      | Some at ->
        let at = A.Interned.value at in
        Alcotest.(check (option string)) "originator stamped" (Some "10.0.0.10")
          (Option.map Bgp_addr.Ipv4.to_string at.A.originator_id);
        Alcotest.(check (list string)) "cluster list grew" [ "192.0.2.254" ]
          (List.map Bgp_addr.Ipv4.to_string at.A.cluster_list);
        (* reflection must not touch path or next hop *)
        Alcotest.(check int) "path preserved" 1 (As_path.length at.A.as_path);
        Alcotest.(check string) "next hop preserved" "10.0.0.10"
          (Bgp_addr.Ipv4.to_string at.A.next_hop)
      | None -> Alcotest.fail "expected announcements")
    o.Rib_manager.announcements

let test_reflection_nonclient_to_clients_only () =
  let t = Rib_manager.create ~local_asn ~router_id () in
  Rib_manager.add_peer t ibgp_a (* non-client source *);
  Rib_manager.add_peer t ibgp_b (* non-client *);
  Rib_manager.add_peer ~rr_client:true t ibgp_c (* client *);
  let o =
    Rib_manager.announce t ~from:ibgp_a (pfx "203.0.113.0/24")
      (attrs ~nh:"10.0.0.10" [ 64999 ])
  in
  let dests = List.map (fun a -> a.Rib_manager.dest.Peer.id) o.Rib_manager.announcements in
  Alcotest.(check (list int)) "only the client hears it" [ 12 ] dests

let test_reflection_loop_rejected () =
  let t = Rib_manager.create ~local_asn ~router_id () in
  Rib_manager.add_peer ~rr_client:true t ibgp_a;
  (* our own cluster id (defaults to router id) in the CLUSTER_LIST *)
  let looped =
    A.make ~cluster_list:[ router_id ] ~originator_id:(ip "10.0.0.10")
      ~as_path:Bgp_route.As_path.empty ~next_hop:(ip "10.0.0.10") ()
  in
  let o = Rib_manager.announce t ~from:ibgp_a (pfx "203.0.113.0/24") looped in
  Alcotest.(check bool) "rejected as loop" true (o.Rib_manager.adj_in_change = `Loop);
  Alcotest.(check int) "nothing selected" 0 (Loc_rib.size (Rib_manager.loc_rib t));
  (* our own router id as ORIGINATOR_ID is equally fatal *)
  let self_originated =
    A.make ~originator_id:router_id ~as_path:Bgp_route.As_path.empty
      ~next_hop:(ip "10.0.0.10") ()
  in
  let o2 = Rib_manager.announce t ~from:ibgp_a (pfx "198.51.100.0/24") self_originated in
  Alcotest.(check bool) "self-originated rejected" true
    (o2.Rib_manager.adj_in_change = `Loop)

let test_ebgp_learned_goes_to_ibgp () =
  (* EBGP routes flow to IBGP peers without reflection config. *)
  let t = Rib_manager.create ~local_asn ~router_id () in
  Rib_manager.add_peer t peer1;
  Rib_manager.add_peer t ibgp_a;
  let o =
    Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
      (attrs ~nh:"192.0.2.1" [ 65001 ])
  in
  let to_ibgp =
    List.filter (fun a -> a.Rib_manager.dest.Peer.id = 10) o.Rib_manager.announcements
  in
  match to_ibgp with
  | [ { Rib_manager.ann_attrs = Some at; _ } ] ->
    let at = A.Interned.value at in
    (* no AS prepend, no next-hop-self on the IBGP leg *)
    Alcotest.(check int) "path unchanged" 1 (As_path.length at.A.as_path);
    Alcotest.(check string) "next hop unchanged" "192.0.2.1"
      (Bgp_addr.Ipv4.to_string at.A.next_hop)
  | _ -> Alcotest.fail "ibgp peer should hear the ebgp route"

(* ------------------------------------------------------------------ *)
(* Route aggregation                                                   *)
(* ------------------------------------------------------------------ *)

let fresh_with_aggregates aggs =
  let t = Rib_manager.create ~aggregates:aggs ~local_asn ~router_id () in
  Rib_manager.add_peer t peer1;
  Rib_manager.add_peer t peer2;
  t

let agg_16 ?(as_set = true) ?(summary_only = false) () =
  { Rib_manager.agg_prefix = pfx "203.0.0.0/16"; agg_as_set = as_set;
    agg_summary_only = summary_only }

let test_aggregate_activation () =
  let t = fresh_with_aggregates [ agg_16 () ] in
  let o1 =
    Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
      (attrs ~nh:"192.0.2.1" [ 65001; 7018 ])
  in
  (* the /24 plus the freshly activated /16 aggregate *)
  let prefixes =
    List.map
      (fun d -> Bgp_addr.Prefix.to_string (Bgp_fib.Fib.delta_prefix d))
      o1.Rib_manager.fib_deltas
    |> List.sort compare
  in
  Alcotest.(check (list string)) "fib deltas"
    [ "203.0.0.0/16"; "203.0.113.0/24" ]
    prefixes;
  (match Loc_rib.find (Rib_manager.loc_rib t) (pfx "203.0.0.0/16") with
  | None -> Alcotest.fail "aggregate not in loc-rib"
  | Some r ->
    Alcotest.(check bool) "locally originated" true (Peer.is_local (R.from r));
    let a = R.attrs r in
    (* AS_SET carries the contributor ASes *)
    Alcotest.(check bool) "as-set has 65001" true
      (As_path.contains (asn 65001) a.A.as_path);
    Alcotest.(check bool) "as-set has 7018" true
      (As_path.contains (asn 7018) a.A.as_path);
    Alcotest.(check bool) "aggregator attribute" true (a.A.aggregator <> None));
  (* the aggregate is advertised to peer2 alongside the specific *)
  Alcotest.(check int) "peer2 hears both" 2 (Rib_manager.adj_out_size t peer2)

let test_aggregate_deactivation () =
  let t = fresh_with_aggregates [ agg_16 () ] in
  ignore
    (Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
       (attrs ~nh:"192.0.2.1" [ 65001 ]));
  ignore
    (Rib_manager.announce t ~from:peer1 (pfx "203.0.42.0/24")
       (attrs ~nh:"192.0.2.1" [ 65001 ]));
  Alcotest.(check int) "loc has 3" 3 (Loc_rib.size (Rib_manager.loc_rib t));
  (* withdrawing one contributor keeps the aggregate *)
  ignore (Rib_manager.withdraw t ~from:peer1 (pfx "203.0.42.0/24"));
  Alcotest.(check bool) "aggregate survives" true
    (Loc_rib.find (Rib_manager.loc_rib t) (pfx "203.0.0.0/16") <> None);
  (* withdrawing the last one deactivates it *)
  let o = Rib_manager.withdraw t ~from:peer1 (pfx "203.0.113.0/24") in
  Alcotest.(check int) "loc empty" 0 (Loc_rib.size (Rib_manager.loc_rib t));
  let withdrawn =
    List.filter_map
      (function
        | Bgp_fib.Fib.Withdraw p -> Some (Bgp_addr.Prefix.to_string p)
        | _ -> None)
      o.Rib_manager.fib_deltas
    |> List.sort compare
  in
  Alcotest.(check (list string)) "both withdrawn from fib"
    [ "203.0.0.0/16"; "203.0.113.0/24" ]
    withdrawn

let test_aggregate_atomic_flag () =
  let t = fresh_with_aggregates [ agg_16 ~as_set:false () ] in
  ignore
    (Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
       (attrs ~nh:"192.0.2.1" [ 65001; 7018 ]));
  match Loc_rib.find (Rib_manager.loc_rib t) (pfx "203.0.0.0/16") with
  | None -> Alcotest.fail "aggregate missing"
  | Some r ->
    let a = R.attrs r in
    Alcotest.(check bool) "atomic set" true a.A.atomic_aggregate;
    Alcotest.(check int) "empty path" 0 (As_path.length a.A.as_path)

let test_aggregate_summary_only () =
  let t = fresh_with_aggregates [ agg_16 ~summary_only:true () ] in
  let o =
    Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
      (attrs ~nh:"192.0.2.1" [ 65001 ])
  in
  (* only the aggregate is exported; the specific is suppressed *)
  Alcotest.(check int) "peer2 hears only the summary" 1
    (Rib_manager.adj_out_size t peer2);
  let announced_prefixes =
    List.filter_map
      (fun a ->
        match a.Rib_manager.ann_attrs with
        | Some _ -> Some (Bgp_addr.Prefix.to_string a.Rib_manager.ann_prefix)
        | None -> None)
      o.Rib_manager.announcements
  in
  Alcotest.(check bool) "summary announced" true
    (List.mem "203.0.0.0/16" announced_prefixes);
  (* deactivation unsuppresses: nothing left to export here, but the
     adj-out must drop the aggregate *)
  ignore (Rib_manager.withdraw t ~from:peer1 (pfx "203.0.113.0/24"));
  Alcotest.(check int) "adj-out empty" 0 (Rib_manager.adj_out_size t peer2)

let test_aggregate_fib_covers_traffic () =
  (* End state: an address under a withdrawn specific still matches the
     aggregate while other specifics remain. *)
  let t = fresh_with_aggregates [ agg_16 () ] in
  let fib = Bgp_fib.Fib.create () in
  let replay o = ignore (Bgp_fib.Fib.apply_all fib o.Rib_manager.fib_deltas) in
  replay
    (Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
       (attrs ~nh:"192.0.2.1" [ 65001 ]));
  replay
    (Rib_manager.announce t ~from:peer1 (pfx "203.0.42.0/24")
       (attrs ~nh:"192.0.2.1" [ 65001 ]));
  replay (Rib_manager.withdraw t ~from:peer1 (pfx "203.0.42.0/24"));
  match Bgp_fib.Fib.lookup fib (ip "203.0.42.9") with
  | Some (p, _) ->
    Alcotest.(check string) "falls back to aggregate" "203.0.0.0/16"
      (Bgp_addr.Prefix.to_string p)
  | None -> Alcotest.fail "aggregate should cover"

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* The fixed EBGP peer set every property draws from. *)
let prop_peer i =
  Peer.make ~id:i
    ~asn:(asn (65001 + i))
    ~router_id:(Bgp_addr.Ipv4.of_octets 192 0 2 (i + 1))
    ~addr:(Bgp_addr.Ipv4.of_octets 192 0 2 (i + 1))

let gen_peer = QCheck2.Gen.(map prop_peer (int_range 0 4))

let gen_candidate =
  QCheck2.Gen.(
    let* peer = gen_peer in
    let* lp = option (int_range 0 300) in
    let* med = option (int_range 0 100) in
    let* plen = int_range 1 5 in
    let* path = list_size (return plen) (int_range 1 65535) in
    let* origin = oneofl [ A.Igp; A.Egp; A.Incomplete ] in
    (* Now and then a reflected route, for the RFC 4456 steps. *)
    let* originator_id =
      frequency
        [ (3, return None);
          (1, map (fun i -> Some (Bgp_addr.Ipv4.of_octets 10 1 0 i)) (int_range 1 6)) ]
    in
    let* cluster_list =
      list_size (int_range 0 2) (map (Bgp_addr.Ipv4.of_octets 10 2 0) (int_range 1 3))
    in
    return
      (R.make ~prefix:(pfx "10.0.0.0/8") ~from:peer
         ~attrs:
           (A.make ~origin ?med ?local_pref:lp ?originator_id ~cluster_list
              ~as_path:(As_path.of_asns (List.map asn path))
              ~next_hop:peer.Peer.addr ())))

(* One route per peer, as in real adj-ins. *)
let dedup_by_peer cands =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun r ->
      let id = (R.from r).Peer.id in
      if Hashtbl.mem seen id then false
      else begin
        Hashtbl.add seen id ();
        true
      end)
    cands

let peer_order a b = Peer.compare (R.from a) (R.from b)

(* [Decision.select] itself is a plain left fold with a documented
   stable-order precondition; arrival-order independence is now the
   manager's property (its candidate iteration has a fixed order), so
   that is where we assert it: any arrival interleaving of the same
   per-peer routes must select the same Loc-RIB entry. *)
let prop_manager_arrival_order_invariant =
  QCheck2.Test.make ~name:"manager selection arrival-order invariant"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 6) gen_candidate)
    (fun cands ->
      let cands = dedup_by_peer cands in
      let run order =
        let t = Rib_manager.create ~local_asn ~router_id () in
        for i = 0 to 4 do
          Rib_manager.add_peer t (prop_peer i)
        done;
        List.iter
          (fun r ->
            ignore
              (Rib_manager.announce t ~from:(R.from r) (R.prefix r) (R.attrs r)))
          order;
        Loc_rib.fingerprint (Rib_manager.loc_rib t)
      in
      String.equal (run cands) (run (List.rev cands)))

let prop_select_returns_maximal =
  QCheck2.Test.make ~name:"select's winner beats or ties every candidate"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 6) gen_candidate)
    (fun cands ->
      (* Sorted to select's stable-peer-order precondition, as the
         manager presents them. *)
      let cands = List.sort peer_order (dedup_by_peer cands) in
      match Decision.select ~local_asn cands with
      | None -> cands = []
      | Some best ->
        List.for_all
          (fun r ->
            R.equal r best || fst (Decision.compare_routes ~local_asn r best) <= 0)
          cands)

(* Reference implementation of the pre-straight-line [compare_routes]
   (the rule/closure list it replaced, since grown by the two RFC 4456
   steps), so qcheck can assert the rewrite changed allocation, not
   answers. *)
let reference_compare_routes ~local_asn a b =
  let pa = R.pref a and pb = R.pref b in
  let steps =
    [ ( Decision.Local_origin,
        fun () ->
          Bool.compare (Peer.is_local (R.from a)) (Peer.is_local (R.from b)) );
      ( Decision.Local_pref,
        fun () -> Int.compare pa.A.pr_local_pref pb.A.pr_local_pref );
      (Decision.Path_length, fun () -> Int.compare pb.A.pr_path_len pa.A.pr_path_len);
      (Decision.Origin, fun () -> Int.compare pb.A.pr_origin pa.A.pr_origin);
      ( Decision.Med,
        fun () ->
          match pa.A.pr_first_hop, pb.A.pr_first_hop with
          | Some na, Some nb when Asn.equal na nb ->
            Int.compare pb.A.pr_med pa.A.pr_med
          | _ -> 0 );
      ( Decision.Ebgp_over_ibgp,
        fun () ->
          let is_ebgp r =
            (not (Peer.is_local (R.from r)))
            && not (Asn.equal (R.from r).Peer.asn local_asn)
          in
          Bool.compare (is_ebgp a) (is_ebgp b) );
      ( Decision.Router_id,
        fun () ->
          let bgp_id r =
            Option.value ~default:(R.from r).Peer.router_id
              (R.attrs r).A.originator_id
          in
          Bgp_addr.Ipv4.compare (bgp_id b) (bgp_id a) );
      ( Decision.Cluster_list,
        fun () ->
          Int.compare
            (List.length (R.attrs b).A.cluster_list)
            (List.length (R.attrs a).A.cluster_list) );
      ( Decision.Peer_address,
        fun () ->
          Bgp_addr.Ipv4.compare (R.from b).Peer.addr (R.from a).Peer.addr )
    ]
  in
  let rec go = function
    | [] -> (0, Decision.Identical)
    | (rule, step) :: rest ->
      let c = step () in
      if c <> 0 then (c, rule) else go rest
  in
  go steps

let prop_compare_routes_matches_reference =
  QCheck2.Test.make
    ~name:"straight-line compare_routes agrees with rule-list reference"
    ~count:1000
    QCheck2.Gen.(pair gen_candidate gen_candidate)
    (fun (a, b) ->
      let c, rule = Decision.compare_routes ~local_asn a b in
      let c', rule' = reference_compare_routes ~local_asn a b in
      c = c' && rule = rule')

(* Differential check of the in-place decision and its best-vs-challenger
   fast path: the same random sequence of announces, withdraws, local
   routes and a late peer is driven through an incremental manager and a
   full-rescan one, which must leave byte-identical Loc-RIB fingerprints
   after every single operation; and each Loc-RIB best must be what
   {!Decision.select} picks from the explicitly built candidate list.
   First hops come from a two-element set so MED-incomparability
   (same-first-hop MED comparisons mixed with incomparable pairs) is
   exercised often, and each peer's import policy is drawn from a set
   that rewrites LOCAL_PREF or MED, or rejects. *)
type rib_op =
  | Op_announce of int * int * A.t
  | Op_withdraw of int * int
  | Op_local of int * A.t option  (* inject, or withdraw with [None] *)
  | Op_add_late  (* peer 0 joins: the highest slot, but first in order *)

let prop_imports =
  let term conds verdict = { Policy.term_name = "t"; conds; verdict } in
  [| Policy.accept_all;
     Policy.make ~name:"lp-via-701"
       [ term [ Policy.Neighbor_as (asn 701) ] (Policy.Accept [ Policy.Set_local_pref 120 ]) ];
     Policy.make ~name:"med-via-7018"
       [ term [ Policy.Neighbor_as (asn 7018) ] (Policy.Accept [ Policy.Set_med 2 ]) ];
     Policy.make ~name:"reject-short"
       [ term [ Policy.Not (Policy.Path_len_at_least 2) ] Policy.Reject ] |]

(* Mostly equal path lengths, origins and LOCAL_PREFs, so MED and the
   peer order decide: the order-sensitive part of the ranking. *)
let gen_prop_attrs nh =
  QCheck2.Gen.(
    let* first_hop = oneofl [ 7018; 701 ] in
    let* med = option (int_range 0 3) in
    let* lp = frequency [ (4, return None); (1, map Option.some (int_range 90 110)) ] in
    let* tail = list_size (int_range 0 1) (int_range 1 60000) in
    let* origin = frequencyl [ (4, A.Igp); (1, A.Egp); (1, A.Incomplete) ] in
    return (attrs ~origin ?med ?local_pref:lp ~nh (first_hop :: tail)))

let gen_rib_op =
  QCheck2.Gen.(
    let* pi = int_range 0 4 in
    let* xi = int_range 0 2 in
    frequency
      [ ( 6,
          map
            (fun a -> Op_announce (pi, xi, a))
            (gen_prop_attrs (Bgp_addr.Ipv4.to_string (prop_peer pi).Peer.addr)) );
        (3, return (Op_withdraw (pi, xi)));
        (1, map (fun a -> Op_local (xi, a)) (option (gen_prop_attrs "192.0.2.254")));
        (1, return Op_add_late) ])

let prop_incremental_matches_full =
  QCheck2.Test.make ~name:"incremental selection matches full re-scan"
    ~count:300
    QCheck2.Gen.(
      pair
        (array_size (return 5) (int_range 0 (Array.length prop_imports - 1)))
        (list_size (int_range 1 40) gen_rib_op))
    (fun (imports, ops) ->
      let prefixes =
        [| pfx "10.0.0.0/8"; pfx "10.1.0.0/16"; pfx "203.0.113.0/24" |]
      in
      let import i = prop_imports.(imports.(i)) in
      let added = Array.make 5 false in
      let managers =
        List.map
          (fun incremental -> Rib_manager.create ~incremental ~local_asn ~router_id ())
          [ true; false ]
      in
      let add i =
        added.(i) <- true;
        List.iter
          (fun t -> Rib_manager.add_peer ~import:(import i) t (prop_peer i))
          managers
      in
      List.iter add [ 1; 2; 3; 4 ];
      let adj_in = Array.init 5 (fun _ -> Hashtbl.create 4) in
      let local = Array.make 3 None in
      let expected xi =
        let p = prefixes.(xi) in
        Option.to_list
          (Option.map (fun a -> R.make ~prefix:p ~attrs:a ~from:Peer.local) local.(xi))
        @ List.filter_map
            (fun i ->
              match Hashtbl.find_opt adj_in.(i) p with
              | Some a when added.(i) ->
                Policy.eval (import i) (R.make ~prefix:p ~attrs:a ~from:(prop_peer i))
              | _ -> None)
            [ 0; 1; 2; 3; 4 ]
        |> Decision.select ~local_asn
      in
      let each f = List.iter (fun t -> ignore (f t)) managers in
      let step = function
        | Op_add_late -> if not added.(0) then add 0
        | Op_announce (pi, _, _) | Op_withdraw (pi, _) when not added.(pi) -> ()
        | Op_announce (pi, xi, a) ->
          Hashtbl.replace adj_in.(pi) prefixes.(xi) a;
          each (fun t -> Rib_manager.announce t ~from:(prop_peer pi) prefixes.(xi) a)
        | Op_withdraw (pi, xi) ->
          Hashtbl.remove adj_in.(pi) prefixes.(xi);
          each (fun t -> Rib_manager.withdraw t ~from:(prop_peer pi) prefixes.(xi))
        | Op_local (xi, a) ->
          local.(xi) <- a;
          each (fun t ->
              match a with
              | Some attrs -> Rib_manager.inject_local_route t ~prefix:prefixes.(xi) ~attrs
              | None -> Rib_manager.withdraw_local t ~prefix:prefixes.(xi))
      in
      List.for_all
        (fun op ->
          step op;
          let fps =
            List.map (fun t -> Loc_rib.fingerprint (Rib_manager.loc_rib t)) managers
          in
          List.for_all (String.equal (List.hd fps)) fps
          && List.for_all
               (fun xi ->
                 match
                   Loc_rib.find (Rib_manager.loc_rib (List.hd managers)) prefixes.(xi),
                   expected xi
                 with
                 | None, None -> true
                 | Some r, Some r' -> R.equal r r'
                 | _ -> false)
               [ 0; 1; 2 ])
        ops)

(* And the fast path must actually fire: a losing challenger from a
   later peer than the incumbent is exactly its trigger condition. *)
let test_decision_fastpath_counter () =
  let t = Rib_manager.create ~local_asn ~router_id () in
  Rib_manager.add_peer t peer1;
  Rib_manager.add_peer t peer2;
  ignore
    (Rib_manager.announce t ~from:peer1 (pfx "203.0.113.0/24")
       (attrs ~nh:"192.0.2.1" [ 65001 ]));
  ignore
    (Rib_manager.announce t ~from:peer2 (pfx "203.0.113.0/24")
       (attrs ~nh:"192.0.2.2" [ 65002; 9; 9 ]));
  let s = Rib_manager.stats t in
  Alcotest.(check int) "fast path fired once" 1 s.Rib_manager.decision_fastpath;
  Alcotest.(check int) "both updates processed" 2 s.Rib_manager.updates_processed;
  (* the incumbent must still be the short-path route *)
  match Loc_rib.find (Rib_manager.loc_rib t) (pfx "203.0.113.0/24") with
  | Some r -> Alcotest.(check int) "peer1 still best" 0 (R.from r).Peer.id
  | None -> Alcotest.fail "best missing"

(* ------------------------------------------------------------------ *)
(* The prefix table: model check, reclamation, footprint, export memo  *)
(* ------------------------------------------------------------------ *)

module I = A.Interned

(* Model-based check of the one-entry-per-prefix table.  The model is
   the naive three-RIB picture: per-peer maps of what each peer
   announced (its Adj-RIB-In) and per-peer maps folded from the
   announcements the manager emitted (its Adj-RIB-Out), with the
   Loc-RIB recomputed from scratch by [Decision.select].  Peer 0 joins
   late, after routes exist, with an id below every registered peer:
   it takes the highest slot but decides first. *)
type model_op =
  | M_announce of int * int * A.t
  | M_group of int * int list * A.t
  | M_withdraw of int * int
  | M_peer_down of int
  | M_refresh of int
  | M_set_up of int * bool
  | M_add_late

let model_prefixes = [| pfx "10.0.0.0/8"; pfx "10.1.0.0/16"; pfx "203.0.113.0/24" |]

(* Paths containing 666 are rejected by the import policy (an entry with
   an Adj-RIB-In route but no best); 65000 is the local AS (a loop). *)
let no_666 =
  Policy.make ~name:"no-666"
    [ { Policy.term_name = "drop-666"; conds = [ Policy.Path_contains (asn 666) ];
        verdict = Policy.Reject } ]

let gen_model_attrs pi =
  QCheck2.Gen.(
    let* first_hop = oneofl [ 7018; 701 ] in
    let* med = option (int_range 0 3) in
    (* Mostly equal lengths and origins, so MED and the peer order
       decide — the order-sensitive part of the ranking. *)
    let* tail =
      list_size (int_range 0 1) (frequencyl [ (6, 1); (1, 666); (1, 65000) ])
    in
    let* origin = frequencyl [ (4, A.Igp); (1, A.Egp) ] in
    return
      (attrs ~origin ?med
         ~nh:(Bgp_addr.Ipv4.to_string (prop_peer pi).Peer.addr)
         (first_hop :: tail)))

let gen_model_op =
  QCheck2.Gen.(
    let* pi = int_range 0 4 in
    let* xi = int_range 0 2 in
    frequency
      [ (5, map (fun a -> M_announce (pi, xi, a)) (gen_model_attrs pi));
        ( 2,
          let* xs = list_size (int_range 1 4) (int_range 0 2) in
          map (fun a -> M_group (pi, xs, a)) (gen_model_attrs pi) );
        (3, return (M_withdraw (pi, xi)));
        (1, return (M_peer_down pi));
        (1, return (M_refresh pi));
        (1, map (fun up -> M_set_up (pi, up)) bool);
        (1, return M_add_late) ])

let model_looping (a : A.t) = As_path.contains local_asn a.A.as_path

let prop_table_matches_model =
  QCheck2.Test.make ~name:"prefix table matches the three-RIB model" ~count:300
    QCheck2.Gen.(list_size (int_range 1 40) gen_model_op)
    (fun ops ->
      let t = Rib_manager.create ~import:no_666 ~local_asn ~router_id () in
      let added = Array.make 5 false in
      let add i =
        Rib_manager.add_peer t (prop_peer i);
        added.(i) <- true
      in
      List.iter add [ 1; 2; 3; 4 ];
      let adj_in = Array.init 5 (fun _ -> Hashtbl.create 4) in
      let adj_out = Array.init 5 (fun _ -> Hashtbl.create 4) in
      let emitted anns =
        List.iter
          (fun a ->
            let out = adj_out.(a.Rib_manager.dest.Peer.id) in
            match a.Rib_manager.ann_attrs with
            | Some h -> Hashtbl.replace out a.Rib_manager.ann_prefix h
            | None -> Hashtbl.remove out a.Rib_manager.ann_prefix)
          anns
      in
      let announce pi p a =
        if model_looping a then Hashtbl.remove adj_in.(pi) p
        else Hashtbl.replace adj_in.(pi) p a
      in
      let expected_best p =
        List.filter_map
          (fun i ->
            match Hashtbl.find_opt adj_in.(i) p with
            | Some a when added.(i) ->
              Policy.eval no_666 (R.make ~prefix:p ~attrs:a ~from:(prop_peer i))
            | _ -> None)
          [ 0; 1; 2; 3; 4 ]
        |> Decision.select ~local_asn
      in
      let step op =
        match op with
        | M_add_late -> if not added.(0) then add 0
        | M_announce (pi, _, _) | M_group (pi, _, _) | M_withdraw (pi, _)
        | M_peer_down pi | M_refresh pi | M_set_up (pi, _)
          when not added.(pi) -> ()
        | M_announce (pi, xi, a) ->
          let p = model_prefixes.(xi) in
          announce pi p a;
          emitted (Rib_manager.announce t ~from:(prop_peer pi) p a).announcements
        | M_group (pi, xis, a) ->
          let ps = List.map (fun xi -> model_prefixes.(xi)) xis in
          List.iter (fun p -> announce pi p a) ps;
          Rib_manager.announce_group t ~from:(prop_peer pi)
            ~each:(fun _ o -> emitted o.Rib_manager.announcements)
            ps (I.intern a)
        | M_withdraw (pi, xi) ->
          let p = model_prefixes.(xi) in
          Hashtbl.remove adj_in.(pi) p;
          emitted (Rib_manager.withdraw t ~from:(prop_peer pi) p).announcements
        | M_peer_down pi ->
          Hashtbl.reset adj_in.(pi);
          Hashtbl.reset adj_out.(pi);
          emitted (Rib_manager.peer_down t (prop_peer pi)).announcements
        | M_refresh pi ->
          Hashtbl.reset adj_out.(pi);
          emitted (Rib_manager.refresh t (prop_peer pi))
        | M_set_up (pi, up) -> Rib_manager.set_peer_up t (prop_peer pi) up
      in
      let agrees () =
        Rib_manager.check_invariants t;
        let loc = Rib_manager.loc_rib t in
        Array.for_all
          (fun p ->
            match Loc_rib.find loc p, expected_best p with
            | None, None -> true
            | Some r, Some r' -> R.equal r r'
            | _ -> false)
          model_prefixes
        && Loc_rib.size loc
           = Array.fold_left
               (fun n p -> if expected_best p = None then n else n + 1)
               0 model_prefixes
        && List.for_all
             (fun i ->
               (not added.(i))
               || Rib_manager.adj_in_size t (prop_peer i) = Hashtbl.length adj_in.(i)
                  && Rib_manager.adj_out_size t (prop_peer i)
                     = Hashtbl.length adj_out.(i))
             [ 0; 1; 2; 3; 4 ]
      in
      List.for_all
        (fun op ->
          step op;
          agrees ()
          || QCheck2.Test.fail_reportf "diverged after %s"
               (match op with
               | M_announce (pi, xi, _) -> Printf.sprintf "announce %d %d" pi xi
               | M_group (pi, _, _) -> Printf.sprintf "group from %d" pi
               | M_withdraw (pi, xi) -> Printf.sprintf "withdraw %d %d" pi xi
               | M_peer_down pi -> Printf.sprintf "peer_down %d" pi
               | M_refresh pi -> Printf.sprintf "refresh %d" pi
               | M_set_up (pi, up) -> Printf.sprintf "set_up %d %b" pi up
               | M_add_late -> "add_peer 0"))
        ops)

(* Four EBGP peers with their own slots, as in the footprint and
   reclamation tests. *)
let four_peer_manager () =
  let t = Rib_manager.create ~local_asn ~router_id () in
  for i = 0 to 3 do
    Rib_manager.add_peer t (prop_peer i)
  done;
  t

(* Withdrawing everything from every peer reclaims every entry: the
   invariant check rejects any empty entry left behind, and what the
   manager retains beyond an empty one is bounded by the grown bucket
   array (a word per bucket), far below the ~17 words an entry costs. *)
let test_withdraw_all_reclaims () =
  let n = 2000 in
  let prefixes =
    List.init n (fun i -> Bgp_addr.Prefix.make (Bgp_addr.Ipv4.of_int (i lsl 8)) 24)
  in
  let t = four_peer_manager () in
  for i = 0 to 3 do
    let from = prop_peer i in
    let a =
      I.intern
        (attrs ~nh:(Bgp_addr.Ipv4.to_string from.Peer.addr)
           (List.init (i + 1) (fun k -> 64512 + k)))
    in
    Rib_manager.announce_group t ~from ~each:(fun _ _ -> ()) prefixes a
  done;
  ignore (Rib_manager.inject_local t ~prefix:(List.hd prefixes) ~next_hop:router_id);
  ignore (Rib_manager.refresh t (prop_peer 3));
  Rib_manager.check_invariants t;
  Alcotest.(check int) "loaded" n (Loc_rib.size (Rib_manager.loc_rib t));
  for i = 0 to 3 do
    List.iter (fun p -> ignore (Rib_manager.withdraw t ~from:(prop_peer i) p)) prefixes
  done;
  ignore (Rib_manager.withdraw_local t ~prefix:(List.hd prefixes));
  Rib_manager.check_invariants t;
  Alcotest.(check int) "Loc-RIB empty" 0 (Loc_rib.size (Rib_manager.loc_rib t));
  for i = 0 to 3 do
    Alcotest.(check int) "Adj-RIB-In empty" 0 (Rib_manager.adj_in_size t (prop_peer i));
    Alcotest.(check int) "Adj-RIB-Out empty" 0 (Rib_manager.adj_out_size t (prop_peer i))
  done;
  let empty = Obj.reachable_words (Obj.repr (four_peer_manager ())) in
  let left = Obj.reachable_words (Obj.repr t) in
  if left - empty > 2 * n then
    Alcotest.failf "withdrawn manager retains %d words over an empty one (bound %d)"
      (left - empty) (2 * n)

(* An empty manager is small: the table starts small and grows with the
   routes instead of carrying full-size tables from creation. *)
let test_empty_manager_footprint () =
  let managers = 100 in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let ms = List.init managers (fun _ -> four_peer_manager ()) in
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  let per = (after - before) * (Sys.word_size / 8) / managers in
  ignore (Sys.opaque_identity ms);
  if per > 4096 then
    Alcotest.failf "an empty 4-peer manager retains %d bytes (bound 4096)" per

(* Minor-heap words the manager allocates per prefix, with three
   accept-all EBGP peers as in perfbench's full-table workload.  An
   UPDATE group is measured inside its [each] callback, from one prefix's
   outcome to the next, so the group's own set-up (its iteration
   closure, the loop guards) is not charged to any prefix; the callback
   itself allocates nothing, since a float array stores unboxed. *)
let group_words t ~from prefixes h =
  let last = [| 0. |] and total = [| 0. |] and first = [| true |] in
  Rib_manager.announce_group t ~from
    ~each:(fun _ _ ->
      let now = Gc.minor_words () in
      if first.(0) then first.(0) <- false
      else total.(0) <- total.(0) +. (now -. last.(0));
      last.(0) <- Gc.minor_words ())
    prefixes h;
  total.(0) /. float_of_int (List.length prefixes - 1)

let test_no_change_allocates_nothing () =
  let n = 2000 in
  let prefixes =
    List.init n (fun i ->
        Bgp_addr.Prefix.make (Bgp_addr.Ipv4.of_int ((i + 1) lsl 8)) 24)
  in
  let pa = prop_peer 1 and pb = prop_peer 2 in
  let t = Rib_manager.create ~local_asn ~router_id () in
  List.iter (fun i -> Rib_manager.add_peer t (prop_peer i)) [ 1; 2; 3 ];
  let via p hops =
    I.intern
      (attrs ~nh:(Bgp_addr.Ipv4.to_string p.Peer.addr)
         (List.init hops (fun _ -> Asn.to_int p.Peer.asn)))
  in
  let load = group_words t ~from:pa prefixes (via pa 1) in
  let challenger = group_words t ~from:pb prefixes (via pb 2) in
  let unchanged = group_words t ~from:pa prefixes (via pa 1) in
  let failover =
    let before = Gc.minor_words () in
    List.iter
      (fun p -> ignore (Sys.opaque_identity (Rib_manager.withdraw t ~from:pa p)))
      prefixes;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  Rib_manager.check_invariants t;
  Alcotest.(check int) "failed over to B" n (Rib_manager.adj_out_size t pa);
  (* A changed best costs its route, an FIB delta, the announcements
     and the outcome: about 36 words on load and 42 on failover. *)
  let over =
    List.filter_map
      (fun (what, words, bound) ->
        if words > bound then
          Some (Printf.sprintf "%s: %.2f words per prefix (bound %.0f)" what words bound)
        else None)
      [ ("losing challenger", challenger, 0.); ("unchanged re-announce", unchanged, 0.);
        ("load", load, 40.); ("failover", failover, 48.) ]
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* The EBGP rewrite the memo stands in for, computed directly. *)
let plain_ebgp_rewrite a =
  { (A.prepend_as local_asn a) with
    A.next_hop = router_id; local_pref = None; med = None }

let export_to t ~from ~dest prefix a =
  List.filter_map
    (fun ann ->
      if Peer.equal ann.Rib_manager.dest dest then ann.Rib_manager.ann_attrs
      else None)
    (Rib_manager.announce t ~from prefix a).Rib_manager.announcements
  |> function
  | [ h ] -> h
  | _ -> Alcotest.fail "expected one export to the destination"

let arena_delta f =
  let s0 = I.stats () in
  let x = f () in
  let s1 = I.stats () in
  ( x,
    ( s1.I.interns - s0.I.interns, s1.I.hits - s0.I.hits,
      s1.I.saved_bytes - s0.I.saved_bytes ) )

let stats_delta = Alcotest.(triple int int int)

let test_export_memo () =
  let a = attrs ~med:5 ~local_pref:120 ~nh:"192.0.2.1" [ 65001; 7 ] in
  let t = fresh () in
  let h1 = export_to t ~from:peer1 ~dest:peer2 (pfx "203.0.113.0/24") a in
  Alcotest.(check bool) "rewrite" true
    (A.equal (I.value h1) (plain_ebgp_rewrite a));
  (* A memo hit returns the arena's handle and accounts exactly like the
     two intern hits (announce, export) it replaces. *)
  let h2, memo = arena_delta (fun () ->
      export_to t ~from:peer1 ~dest:peer2 (pfx "198.51.100.0/24") a)
  in
  let h3, direct = arena_delta (fun () ->
      ignore (I.intern a);
      I.intern (plain_ebgp_rewrite a))
  in
  Alcotest.(check bool) "hit is the arena handle" true (h2 == h1 && h3 == h1);
  Alcotest.check stats_delta "hit accounted like intern" direct memo;
  (* Sharing off: every export is a fresh, structurally equal handle. *)
  Fun.protect
    ~finally:(fun () -> I.set_sharing true)
    (fun () ->
      I.set_sharing false;
      let u1 = export_to t ~from:peer1 ~dest:peer2 (pfx "192.0.2.0/24") a in
      let u2 = export_to t ~from:peer1 ~dest:peer2 (pfx "198.18.0.0/15") a in
      Alcotest.(check bool) "fresh handles" true (u1 != u2 && u1 != h1);
      Alcotest.(check bool) "same attributes" true (I.equal u1 u2));
  (* After a clear, nothing from before it comes back. *)
  I.clear ();
  let c1 = export_to t ~from:peer1 ~dest:peer2 (pfx "100.64.0.0/10") a in
  Alcotest.(check bool) "post-clear handle is fresh" true
    (I.id c1 > I.id h1 && c1 == I.intern (plain_ebgp_rewrite a))

(* ------------------------------------------------------------------ *)
(* RFC 2439 route flap damping                                         *)
(* ------------------------------------------------------------------ *)

let damp_attrs = A.Interned.intern (attrs ~nh:"192.0.2.1" [ 65001; 7 ])
let damp_attrs' = A.Interned.intern (attrs ~nh:"192.0.2.1" [ 65001; 8; 9 ])
let dpfx = pfx "203.0.113.0/24"

let test_damping_first_announce_free () =
  let d =
    Damping.create ~metrics:(Bgp_stats.Metrics.create ()) Damping.test_config
  in
  Alcotest.(check bool) "first announce passes" true
    (Damping.on_announce d ~now:0. ~peer:peer1 ~prefix:dpfx ~attrs:damp_attrs
    = Damping.Pass);
  Alcotest.(check (float 0.)) "no state, no penalty" 0.
    (Damping.penalty d ~now:0. ~peer:peer1 ~prefix:dpfx)

let test_damping_suppress_and_reuse () =
  let c = Damping.test_config in
  let d = Damping.create ~metrics:(Bgp_stats.Metrics.create ()) c in
  (* Two quick withdraw/announce cycles cross the suppress threshold. *)
  Damping.note_withdraw d ~now:0. ~peer:peer1 ~prefix:dpfx;
  Alcotest.(check bool) "one withdrawal not yet suppressed" true
    (Damping.suppressed_count d = 0);
  Alcotest.(check bool) "re-announce passes" true
    (Damping.on_announce d ~now:0.1 ~peer:peer1 ~prefix:dpfx ~attrs:damp_attrs
    = Damping.Pass);
  Damping.note_withdraw d ~now:0.2 ~peer:peer1 ~prefix:dpfx;
  Alcotest.(check int) "second withdrawal suppresses" 1
    (Damping.suppressed_count d);
  Alcotest.(check bool) "announce while suppressed withheld" true
    (Damping.on_announce d ~now:0.3 ~peer:peer1 ~prefix:dpfx ~attrs:damp_attrs
    = Damping.Suppress);
  (* The reuse instant: decay from ~2000 to 750 with a 2 s half-life. *)
  (match Damping.next_reuse_at d with
  | None -> Alcotest.fail "no reuse timer while suppressed"
  | Some at ->
    Alcotest.(check bool) "reuse in the future" true (at > 0.3);
    Alcotest.(check bool) "reuse within max_suppress" true
      (at <= 0.3 +. c.Damping.max_suppress);
    Alcotest.(check int) "not reusable before the instant" 0
      (List.length (Damping.take_reusable d ~now:(at -. 0.5)));
    (match Damping.take_reusable d ~now:(at +. 0.01) with
    | [ (p, x, a) ] ->
      Alcotest.(check int) "reused for the right peer" peer1.Peer.id p.Peer.id;
      Alcotest.(check bool) "right prefix" true (Bgp_addr.Prefix.equal x dpfx);
      Alcotest.(check bool) "latest attrs released" true
        (A.Interned.equal a damp_attrs)
    | l -> Alcotest.failf "expected one reusable route, got %d" (List.length l)));
  Alcotest.(check int) "nothing suppressed after reuse" 0
    (Damping.suppressed_count d);
  Alcotest.(check int) "books exactly one reuse" 1 (Damping.reuses d)

let test_damping_withdrawn_route_not_reinjected () =
  let d =
    Damping.create ~metrics:(Bgp_stats.Metrics.create ()) Damping.test_config
  in
  (* Suppress, then withdraw while suppressed: nothing to re-inject. *)
  Damping.note_withdraw d ~now:0. ~peer:peer1 ~prefix:dpfx;
  ignore (Damping.on_announce d ~now:0.1 ~peer:peer1 ~prefix:dpfx ~attrs:damp_attrs);
  Damping.note_withdraw d ~now:0.2 ~peer:peer1 ~prefix:dpfx;
  Alcotest.(check int) "suppressed" 1 (Damping.suppressed_count d);
  Alcotest.(check (list reject)) "withdrawn route released empty" []
    (List.map (fun _ -> ()) (Damping.take_reusable d ~now:100.));
  Alcotest.(check int) "released nonetheless" 0 (Damping.suppressed_count d)

let test_damping_ceiling_bounds_suppression () =
  let c = Damping.test_config in
  let d = Damping.create ~metrics:(Bgp_stats.Metrics.create ()) c in
  (* Hammer the route far past the ceiling; suppression must still end
     within max_suppress of the last flap. *)
  for i = 0 to 49 do
    let now = 0.05 *. float_of_int i in
    Damping.note_withdraw d ~now ~peer:peer1 ~prefix:dpfx;
    ignore
      (Damping.on_announce d ~now:(now +. 0.02) ~peer:peer1 ~prefix:dpfx
         ~attrs:(if i mod 2 = 0 then damp_attrs else damp_attrs'))
  done;
  let last = 0.05 *. 49. +. 0.02 in
  Alcotest.(check bool) "penalty clamped to the ceiling" true
    (Damping.penalty d ~now:last ~peer:peer1 ~prefix:dpfx
    <= Damping.ceiling c +. 1e-6);
  match Damping.next_reuse_at d with
  | None -> Alcotest.fail "no reuse timer"
  | Some at ->
    Alcotest.(check bool) "reuse within max_suppress of last flap" true
      (at -. last <= c.Damping.max_suppress +. 1e-6)

let test_damping_counters_phase_scoped () =
  let metrics = Bgp_stats.Metrics.create () in
  let d = Damping.create ~metrics Damping.test_config in
  let flap now =
    Damping.note_withdraw d ~now ~peer:peer1 ~prefix:dpfx;
    ignore
      (Damping.on_announce d ~now:(now +. 0.1) ~peer:peer1 ~prefix:dpfx
         ~attrs:damp_attrs)
  in
  (* First phase: two quick flaps suppress the route. *)
  flap 0.;
  flap 0.2;
  Alcotest.(check (list int)) "first phase: flaps, suppressions, reuses"
    [ 2; 1; 0 ]
    [ Damping.flaps d; Damping.suppressions d; Damping.reuses d ];
  Bgp_stats.Metrics.reset_all metrics;
  Alcotest.(check (list int)) "reset clears the counters" [ 0; 0; 0 ]
    [ Damping.flaps d; Damping.suppressions d; Damping.reuses d ];
  Alcotest.(check int) "reset leaves the suppressed gauge" 1
    (Damping.suppressed_in metrics);
  (* Second phase: the route is reused, then flaps once more. *)
  ignore (Damping.take_reusable d ~now:100.);
  Damping.note_withdraw d ~now:100.5 ~peer:peer1 ~prefix:dpfx;
  Alcotest.(check (list int)) "second phase counts only itself" [ 1; 0; 1 ]
    [ Damping.flaps d; Damping.suppressions d; Damping.reuses d ];
  Alcotest.(check int) "gauge follows the table" (Damping.suppressed_count d)
    (Damping.suppressed_in metrics)

let prop_damping_decay_halves =
  QCheck2.Test.make ~name:"penalty halves every half-life" ~count:200
    QCheck2.Gen.(pair (float_range 0.5 100.) (int_range 1 5))
    (fun (hl, k) ->
      let c = { Damping.test_config with Damping.half_life = hl } in
      let d = Damping.create ~metrics:(Bgp_stats.Metrics.create ()) c in
      Damping.note_withdraw d ~now:0. ~peer:peer1 ~prefix:dpfx;
      let p0 = Damping.penalty d ~now:0. ~peer:peer1 ~prefix:dpfx in
      let pk =
        Damping.penalty d ~now:(hl *. float_of_int k) ~peer:peer1 ~prefix:dpfx
      in
      Float.abs (pk -. (p0 /. (2. ** float_of_int k))) < 1e-6 *. p0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "bgp_rib"
    [ ( "decision",
        [ Alcotest.test_case "local pref" `Quick test_decision_local_pref;
          Alcotest.test_case "default local pref" `Quick test_decision_default_local_pref;
          Alcotest.test_case "path length" `Quick test_decision_path_length;
          Alcotest.test_case "origin" `Quick test_decision_origin;
          Alcotest.test_case "med same neighbor" `Quick test_decision_med_same_neighbor;
          Alcotest.test_case "med different neighbor" `Quick
            test_decision_med_different_neighbor;
          Alcotest.test_case "missing med best" `Quick test_decision_missing_med_is_best;
          Alcotest.test_case "ebgp over ibgp" `Quick test_decision_ebgp_over_ibgp;
          Alcotest.test_case "local wins" `Quick test_decision_local_wins;
          Alcotest.test_case "router id tiebreak" `Quick test_decision_router_id_tiebreak;
          Alcotest.test_case "select permutations" `Quick test_select_permutation_invariant
        ] );
      ( "rib_manager",
        [ Alcotest.test_case "first announcement" `Quick test_first_announcement;
          Alcotest.test_case "duplicate is no-op" `Quick test_duplicate_announcement_noop;
          Alcotest.test_case "longer path: no FIB change" `Quick
            test_longer_path_no_fib_change;
          Alcotest.test_case "shorter path: FIB replace" `Quick test_shorter_path_replaces;
          Alcotest.test_case "withdraw falls back" `Quick test_withdraw_falls_back;
          Alcotest.test_case "AS loop detection" `Quick test_loop_detection;
          Alcotest.test_case "local injection wins" `Quick test_local_injection_wins;
          Alcotest.test_case "export_full" `Quick test_export_full;
          Alcotest.test_case "refresh resends" `Quick test_refresh_resends;
          Alcotest.test_case "peer down" `Quick test_peer_down;
          Alcotest.test_case "import policy filters" `Quick test_import_policy_filters;
          Alcotest.test_case "import policy local-pref" `Quick
            test_import_policy_local_pref_overrides;
          Alcotest.test_case "no-export community" `Quick test_no_export_community;
          Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
          Alcotest.test_case "decision fast path fires" `Quick
            test_decision_fastpath_counter
        ] );
      ( "prefix table",
        [ Alcotest.test_case "withdraw-all reclaims entries" `Quick
            test_withdraw_all_reclaims;
          Alcotest.test_case "empty manager footprint" `Quick
            test_empty_manager_footprint;
          Alcotest.test_case "no-change path allocates nothing" `Quick
            test_no_change_allocates_nothing;
          Alcotest.test_case "export memo" `Quick test_export_memo
        ] );
      ( "route reflection",
        [ Alcotest.test_case "ibgp no re-advertisement" `Quick
            test_ibgp_no_readvertisement;
          Alcotest.test_case "client reflects to all" `Quick
            test_reflection_client_to_all;
          Alcotest.test_case "non-client reflects to clients only" `Quick
            test_reflection_nonclient_to_clients_only;
          Alcotest.test_case "reflection loop rejected" `Quick
            test_reflection_loop_rejected;
          Alcotest.test_case "ebgp route reaches ibgp" `Quick
            test_ebgp_learned_goes_to_ibgp;
          Alcotest.test_case "RFC 4456 tie-breaks" `Quick test_reflection_tie_breaks
        ] );
      ( "aggregation",
        [ Alcotest.test_case "activation with AS_SET" `Quick test_aggregate_activation;
          Alcotest.test_case "deactivation" `Quick test_aggregate_deactivation;
          Alcotest.test_case "atomic aggregate flag" `Quick test_aggregate_atomic_flag;
          Alcotest.test_case "summary-only suppression" `Quick
            test_aggregate_summary_only;
          Alcotest.test_case "fib covers withdrawn specific" `Quick
            test_aggregate_fib_covers_traffic
        ] );
      ( "damping",
        [ Alcotest.test_case "first announce free" `Quick
            test_damping_first_announce_free;
          Alcotest.test_case "suppress and reuse" `Quick
            test_damping_suppress_and_reuse;
          Alcotest.test_case "withdrawn not re-injected" `Quick
            test_damping_withdrawn_route_not_reinjected;
          Alcotest.test_case "ceiling bounds suppression" `Quick
            test_damping_ceiling_bounds_suppression;
          Alcotest.test_case "damping counters are phase-scoped" `Quick
            test_damping_counters_phase_scoped
        ] );
      qsuite "properties"
        [ prop_manager_arrival_order_invariant; prop_select_returns_maximal;
          prop_compare_routes_matches_reference; prop_incremental_matches_full;
          prop_table_matches_model; prop_damping_decay_halves ]
    ]
