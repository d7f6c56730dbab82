open Bgp_policy
module A = Bgp_route.Attrs
module R = Bgp_route.Route
module As_path = Bgp_route.As_path
module Asn = Bgp_route.Asn
module Community = Bgp_route.Community

let ip = Bgp_addr.Ipv4.of_string_exn
let pfx = Bgp_addr.Prefix.of_string_exn
let asn = Asn.of_int

let route ?(prefix = "203.0.113.0/24") ?med ?local_pref ?(communities = [])
    ?(path = [ 65001; 65002 ]) () =
  let attrs =
    A.make ?med ?local_pref ~communities
      ~as_path:(As_path.of_asns (List.map asn path))
      ~next_hop:(ip "192.0.2.1") ()
  in
  let peer =
    Bgp_route.Peer.make ~id:1 ~asn:(asn 65001) ~router_id:(ip "192.0.2.1")
      ~addr:(ip "192.0.2.1")
  in
  R.make ~prefix:(pfx prefix) ~attrs ~from:peer

(* ------------------------------------------------------------------ *)
(* Conditions                                                          *)
(* ------------------------------------------------------------------ *)

let test_prefix_conds () =
  let set = Bgp_addr.Prefix_set.of_list [ pfx "203.0.113.0/24"; pfx "10.0.0.0/8" ] in
  let r = route ~prefix:"203.0.113.0/24" () in
  Alcotest.(check bool) "exact" true (Policy.matches (Policy.Prefix_exact set) r);
  Alcotest.(check bool) "in" true (Policy.matches (Policy.Prefix_in set) r);
  let sub = route ~prefix:"10.1.0.0/16" () in
  Alcotest.(check bool) "more specific not exact" false
    (Policy.matches (Policy.Prefix_exact set) sub);
  Alcotest.(check bool) "more specific in" true
    (Policy.matches (Policy.Prefix_in set) sub);
  Alcotest.(check bool) "unrelated" false
    (Policy.matches (Policy.Prefix_in set) (route ~prefix:"198.51.100.0/24" ()));
  Alcotest.(check bool) "len range yes" true
    (Policy.matches (Policy.Prefix_len_range (20, 24)) r);
  Alcotest.(check bool) "len range no" false
    (Policy.matches (Policy.Prefix_len_range (25, 32)) r)

let test_path_conds () =
  let r = route ~path:[ 7018; 701; 3356 ] () in
  Alcotest.(check bool) "contains" true
    (Policy.matches (Policy.Path_contains (asn 701)) r);
  Alcotest.(check bool) "not contains" false
    (Policy.matches (Policy.Path_contains (asn 9)) r);
  Alcotest.(check bool) "neighbor" true
    (Policy.matches (Policy.Neighbor_as (asn 7018)) r);
  Alcotest.(check bool) "origin as" true
    (Policy.matches (Policy.Origin_as (asn 3356)) r);
  Alcotest.(check bool) "len at least" true
    (Policy.matches (Policy.Path_len_at_least 3) r);
  Alcotest.(check bool) "len at least no" false
    (Policy.matches (Policy.Path_len_at_least 4) r)

let test_attr_conds () =
  let c = Community.make (asn 65000) 100 in
  let r = route ~med:50 ~communities:[ c ] () in
  Alcotest.(check bool) "community" true (Policy.matches (Policy.Has_community c) r);
  Alcotest.(check bool) "med <=" true (Policy.matches (Policy.Med_at_most 50) r);
  Alcotest.(check bool) "med >" false (Policy.matches (Policy.Med_at_most 49) r);
  Alcotest.(check bool) "no med" false
    (Policy.matches (Policy.Med_at_most 1000) (route ()));
  Alcotest.(check bool) "origin igp" true
    (Policy.matches (Policy.Origin_is A.Igp) r)

let test_combinators () =
  let r = route ~med:50 () in
  let t = Policy.Med_at_most 50 and f = Policy.Med_at_most 0 in
  Alcotest.(check bool) "all empty" true (Policy.matches (Policy.All []) r);
  Alcotest.(check bool) "any empty" false (Policy.matches (Policy.Any []) r);
  Alcotest.(check bool) "all" true (Policy.matches (Policy.All [ t; t ]) r);
  Alcotest.(check bool) "all short" false (Policy.matches (Policy.All [ t; f ]) r);
  Alcotest.(check bool) "any" true (Policy.matches (Policy.Any [ f; t ]) r);
  Alcotest.(check bool) "not" true (Policy.matches (Policy.Not f) r)

(* ------------------------------------------------------------------ *)
(* Actions and evaluation                                              *)
(* ------------------------------------------------------------------ *)

let test_actions () =
  let r = route () in
  let lp = Policy.apply_action (Policy.Set_local_pref 200) r in
  Alcotest.(check (option int)) "lp" (Some 200) (R.attrs lp).A.local_pref;
  let nolp = Policy.apply_action Policy.Clear_local_pref lp in
  Alcotest.(check (option int)) "clear lp" None (R.attrs nolp).A.local_pref;
  let prep = Policy.apply_action (Policy.Prepend_path (asn 65001, 3)) r in
  Alcotest.(check int) "prepend" 5 (R.as_path_length prep);
  let comm = Policy.apply_action (Policy.Add_community Community.no_export) r in
  Alcotest.(check bool) "community" true
    (A.has_community Community.no_export (R.attrs comm));
  let stripped = Policy.apply_action Policy.Strip_communities comm in
  Alcotest.(check int) "stripped" 0 (List.length (R.attrs stripped).A.communities);
  let nh = Policy.apply_action (Policy.Set_next_hop (ip "10.9.9.9")) r in
  Alcotest.(check string) "nh" "10.9.9.9"
    (Bgp_addr.Ipv4.to_string (R.attrs nh).A.next_hop)

let test_eval_term_order () =
  (* First matching term decides; later terms never run. *)
  let p =
    Policy.make ~name:"ordered"
      [ { Policy.term_name = "t1"; conds = [ Policy.Path_len_at_least 1 ];
          verdict = Policy.Accept [ Policy.Set_local_pref 111 ] };
        { Policy.term_name = "t2"; conds = [];
          verdict = Policy.Accept [ Policy.Set_local_pref 222 ] }
      ]
  in
  match Policy.eval p (route ()) with
  | None -> Alcotest.fail "accepted expected"
  | Some r -> Alcotest.(check (option int)) "first term" (Some 111) (R.attrs r).A.local_pref

let test_eval_reject_and_default () =
  let reject_long =
    Policy.make ~name:"no-long-paths"
      [ { Policy.term_name = "kill"; conds = [ Policy.Path_len_at_least 5 ];
          verdict = Policy.Reject }
      ]
  in
  Alcotest.(check bool) "short accepted" true
    (Policy.eval reject_long (route ()) <> None);
  Alcotest.(check bool) "long rejected" true
    (Policy.eval reject_long (route ~path:[ 1; 2; 3; 4; 5 ] ()) = None);
  let default_reject = Policy.make ~default:`Reject ~name:"whitelist" [] in
  Alcotest.(check bool) "default reject" true
    (Policy.eval default_reject (route ()) = None);
  Alcotest.(check bool) "accept_all" true (Policy.eval Policy.accept_all (route ()) <> None);
  Alcotest.(check bool) "reject_all" true (Policy.eval Policy.reject_all (route ()) = None)

let test_multiple_actions_compose () =
  let p =
    Policy.make ~name:"compose"
      [ { Policy.term_name = "t"; conds = [];
          verdict =
            Policy.Accept
              [ Policy.Set_local_pref 50; Policy.Set_med 10;
                Policy.Prepend_path (asn 9, 2) ] }
      ]
  in
  match Policy.eval p (route ()) with
  | None -> Alcotest.fail "accept"
  | Some r ->
    Alcotest.(check (option int)) "lp" (Some 50) (R.attrs r).A.local_pref;
    Alcotest.(check (option int)) "med" (Some 10) (R.attrs r).A.med;
    Alcotest.(check int) "path" 4 (R.as_path_length r)

let test_work_units () =
  Alcotest.(check bool) "empty policy costs >= 1" true
    (snd (Policy.apply Policy.accept_all (route ())) >= 1);
  let p =
    Policy.make ~name:"three-conds"
      [ { Policy.term_name = "t";
          conds = [ Policy.Path_len_at_least 1; Policy.Med_at_most 5;
                    Policy.Origin_is A.Igp ];
          verdict = Policy.Reject }
      ]
  in
  (* Path_len matches, Med fails -> 2 evaluations, then default. *)
  let result, units = Policy.apply p (route ()) in
  Alcotest.(check int) "short circuit" 2 units;
  Alcotest.(check bool) "default accepts" true (result <> None)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_route =
  QCheck2.Gen.(
    let* med = option (int_range 0 100) in
    let* lp = option (int_range 0 500) in
    let* plen = int_range 1 6 in
    let* path = list_size (return plen) (int_range 1 65535) in
    return (route ?med ?local_pref:lp ~path ()))

let prop_eval_deterministic =
  QCheck2.Test.make ~name:"eval is deterministic" ~count:300 gen_route (fun r ->
      let p =
        Policy.make ~name:"p"
          [ { Policy.term_name = "a"; conds = [ Policy.Med_at_most 50 ];
              verdict = Policy.Accept [ Policy.Set_local_pref 7 ] };
            { Policy.term_name = "b"; conds = [ Policy.Path_len_at_least 4 ];
              verdict = Policy.Reject }
          ]
      in
      let o1 = Policy.eval p r and o2 = Policy.eval p r in
      (match o1, o2 with
      | None, None -> true
      | Some a, Some b -> R.equal a b
      | _ -> false))

(* [apply] is [eval] plus its work units, from one evaluation. *)
let prop_apply_matches_eval =
  QCheck2.Test.make ~name:"apply's result is eval's" ~count:300 gen_route
    (fun r ->
      let p =
        Policy.make ~name:"p"
          [ { Policy.term_name = "a"; conds = [ Policy.Med_at_most 50 ];
              verdict = Policy.Accept [ Policy.Set_local_pref 7 ] };
            { Policy.term_name = "b"; conds = [ Policy.Path_len_at_least 4 ];
              verdict = Policy.Reject }
          ]
      in
      let applied, units = Policy.apply p r in
      units >= 1
      &&
      match applied, Policy.eval p r with
      | None, None -> true
      | Some a, Some b -> R.equal a b
      | _ -> false)

let prop_accept_all_identity =
  QCheck2.Test.make ~name:"accept_all is the identity" ~count:300 gen_route
    (fun r ->
      match Policy.eval Policy.accept_all r with
      | Some r' -> R.equal r r'
      | None -> false)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "bgp_policy"
    [ ( "conditions",
        [ Alcotest.test_case "prefix matching" `Quick test_prefix_conds;
          Alcotest.test_case "path matching" `Quick test_path_conds;
          Alcotest.test_case "attribute matching" `Quick test_attr_conds;
          Alcotest.test_case "combinators" `Quick test_combinators
        ] );
      ( "evaluation",
        [ Alcotest.test_case "actions" `Quick test_actions;
          Alcotest.test_case "term order" `Quick test_eval_term_order;
          Alcotest.test_case "reject and defaults" `Quick test_eval_reject_and_default;
          Alcotest.test_case "actions compose" `Quick test_multiple_actions_compose;
          Alcotest.test_case "work units" `Quick test_work_units
        ] );
      qsuite "properties"
        [ prop_eval_deterministic; prop_apply_matches_eval;
          prop_accept_all_identity ]
    ]
