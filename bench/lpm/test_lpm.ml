(* The LPM ablation structures: Patricia against a naive model, and
   Dir24_8 against Patricia. *)

open Bgp_lpm
module P = Bgp_addr.Prefix
module I = Bgp_addr.Ipv4

let ip = I.of_string_exn
let pfx = P.of_string_exn

(* ------------------------------------------------------------------ *)
(* Patricia unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let add t p v = ignore (Patricia.add ~equal:Int.equal t p v)

let of_list bindings =
  let t = Patricia.create () in
  List.iter (fun (p, v) -> add t p v) bindings;
  t

let of_strings bindings = of_list (List.map (fun (s, v) -> (pfx s, v)) bindings)

let lookup_str t a =
  match Patricia.lookup t (ip a) with
  | Some (p, v) -> Printf.sprintf "%s=%d" (P.to_string p) v
  | None -> "none"

let test_patricia_basic () =
  let t =
    of_strings
      [ ("10.0.0.0/8", 1); ("10.1.0.0/16", 2); ("10.1.2.0/24", 3);
        ("192.168.0.0/16", 4) ]
  in
  Alcotest.(check int) "cardinal" 4 (Patricia.cardinal t);
  Alcotest.(check string) "most specific" "10.1.2.0/24=3" (lookup_str t "10.1.2.99");
  Alcotest.(check string) "mid" "10.1.0.0/16=2" (lookup_str t "10.1.3.1");
  Alcotest.(check string) "least" "10.0.0.0/8=1" (lookup_str t "10.2.0.1");
  Alcotest.(check string) "other" "192.168.0.0/16=4" (lookup_str t "192.168.9.9");
  Alcotest.(check string) "miss" "none" (lookup_str t "172.16.0.1")

let test_patricia_default_route () =
  let t = of_list [ (P.default, 0) ] in
  Alcotest.(check string) "default catches all" "0.0.0.0/0=0" (lookup_str t "8.8.8.8");
  add t (pfx "8.0.0.0/8") 1;
  Alcotest.(check string) "specific beats default" "8.0.0.0/8=1" (lookup_str t "8.8.8.8")

let test_patricia_replace () =
  let t = of_strings [ ("10.0.0.0/8", 1); ("10.0.0.0/8", 99) ] in
  Alcotest.(check int) "still one entry" 1 (Patricia.cardinal t);
  Alcotest.(check (option int)) "replaced" (Some 99)
    (Patricia.find_exact t (pfx "10.0.0.0/8"))

let test_patricia_remove () =
  let t = of_strings [ ("10.0.0.0/8", 1); ("10.1.0.0/16", 2) ] in
  ignore (Patricia.remove t (pfx "10.1.0.0/16"));
  Alcotest.(check int) "one left" 1 (Patricia.cardinal t);
  Alcotest.(check string) "falls back" "10.0.0.0/8=1" (lookup_str t "10.1.0.1");
  ignore (Patricia.remove t (pfx "10.0.0.0/8"));
  Alcotest.(check bool) "empty" true (Patricia.is_empty t);
  (* removing a missing prefix is a no-op *)
  let t2 = of_strings [ ("10.0.0.0/8", 1) ] in
  ignore (Patricia.remove t2 (pfx "11.0.0.0/8"));
  Alcotest.(check int) "no-op remove" 1 (Patricia.cardinal t2)

let test_patricia_slash32 () =
  let t = of_strings [ ("10.0.0.1/32", 1); ("10.0.0.0/31", 2) ] in
  Alcotest.(check string) "host route" "10.0.0.1/32=1" (lookup_str t "10.0.0.1");
  Alcotest.(check string) "host sibling" "10.0.0.0/31=2" (lookup_str t "10.0.0.0")

(* [add] and [remove] report what they did to the table they mutate. *)
let test_patricia_in_place () =
  let t = Patricia.create () in
  let change = Alcotest.testable (fun ppf c ->
      Format.pp_print_string ppf
        (match c with
        | Patricia.Unchanged -> "Unchanged"
        | Patricia.Replaced -> "Replaced"
        | Patricia.Added -> "Added"))
      ( = )
  in
  let check_add name p v expect =
    Alcotest.check change name expect (Patricia.add ~equal:Int.equal t (pfx p) v)
  in
  check_add "new" "10.0.0.0/8" 1 Patricia.Added;
  check_add "below" "10.1.0.0/16" 2 Patricia.Added;
  check_add "same value" "10.0.0.0/8" 1 Patricia.Unchanged;
  check_add "other value" "10.0.0.0/8" 3 Patricia.Replaced;
  (* The two /16s meet at a valueless branch point, 10.0.0.0/15. *)
  check_add "sibling" "10.0.0.0/16" 4 Patricia.Added;
  check_add "valueless branch" "10.0.0.0/15" 5 Patricia.Added;
  Alcotest.(check int) "cardinal" 4 (Patricia.cardinal t);
  Alcotest.(check bool) "remove present" true (Patricia.remove t (pfx "10.0.0.0/15"));
  Alcotest.(check bool) "remove absent" false (Patricia.remove t (pfx "11.0.0.0/8"));
  Alcotest.(check bool) "remove branch point" false
    (Patricia.remove t (pfx "10.0.0.0/15"));
  Alcotest.(check string) "update seen in place" "10.0.0.0/8=3"
    (lookup_str t "10.9.0.1");
  Alcotest.(check bool) "invariants" true (Patricia.check_invariants t = Ok ())


(* ------------------------------------------------------------------ *)
(* Model-based property tests: Patricia vs naive                       *)
(* ------------------------------------------------------------------ *)

(* A step script drives all implementations identically. *)
type step = SAdd of P.t * int | SRemove of P.t

let gen_prefix =
  QCheck2.Gen.(
    (* Small universe to force collisions, nesting and removals of
       present entries. *)
    let* len = oneofl [ 0; 4; 8; 12; 16; 20; 24; 28; 32 ] in
    let* a = int_range 0 255 in
    let* b = oneofl [ 0; 64; 128 ] in
    return (P.make (I.of_octets 10 a b 1) len))

let gen_step =
  QCheck2.Gen.(
    let* p = gen_prefix in
    let* v = int_range 0 1000 in
    let* add = frequency [ (3, return true); (1, return false) ] in
    return (if add then SAdd (p, v) else SRemove p))

let gen_script = QCheck2.Gen.(list_size (int_range 0 120) gen_step)

(* Naive reference: association list keyed by prefix. *)
let naive_apply model = function
  | SAdd (p, v) -> (p, v) :: List.remove_assoc p model
  | SRemove p -> List.remove_assoc p model

let naive_lookup model a =
  List.fold_left
    (fun best (p, v) ->
      if P.mem a p then
        match best with
        | Some (bp, _) when P.len bp >= P.len p -> best
        | _ -> Some (p, v)
      else best)
    None model

(* The change [step] makes to [model], as [add]/[remove] should report
   it. *)
let expected_change model = function
  | SAdd (p, v) -> (
    match List.assoc_opt p model with
    | Some w when w = v -> `Add Patricia.Unchanged
    | Some _ -> `Add Patricia.Replaced
    | None -> `Add Patricia.Added)
  | SRemove p -> `Remove (List.mem_assoc p model)


let apply_step pat = function
  | SAdd (p, v) -> `Add (Patricia.add ~equal:Int.equal pat p v)
  | SRemove p -> `Remove (Patricia.remove pat p)


let run_script script =
  let model = List.fold_left naive_apply [] script in
  let pat = Patricia.create () in
  List.iter (fun step -> ignore (apply_step pat step)) script;
  (model, pat)

let probe_addrs =
  [ "10.0.0.1"; "10.17.64.1"; "10.255.128.1"; "10.128.0.1"; "11.0.0.1";
    "0.0.0.0"; "255.255.255.255"; "10.3.128.200" ]
  |> List.map ip

let prop_patricia_vs_model =
  QCheck2.Test.make ~name:"patricia agrees with naive model" ~count:300 gen_script
    (fun script ->
      let model, pat = run_script script in
      Patricia.cardinal pat = List.length model
      && List.for_all
           (fun a ->
             let expect = naive_lookup model a in
             let got = Patricia.lookup pat a in
             match expect, got with
             | None, None -> true
             | Some (p, v), Some (q, w) -> P.equal p q && v = w
             | _ -> false)
           probe_addrs)


let prop_patricia_invariants =
  QCheck2.Test.make ~name:"patricia invariants hold" ~count:300 gen_script
    (fun script ->
      let _, pat = run_script script in
      match Patricia.check_invariants pat with
      | Ok () -> true
      | Error _ -> false)

let prop_patricia_find_exact =
  QCheck2.Test.make ~name:"find_exact matches model membership" ~count:300
    gen_script (fun script ->
      let model, pat = run_script script in
      List.for_all
        (fun (p, v) -> Patricia.find_exact pat p = Some v)
        model)

(* Every step of [script] applied to [t] reports the change it makes to
   the model. *)
let reports_model_change apply t script =
  snd
    (List.fold_left
       (fun (model, ok) step ->
         let ok = ok && apply t step = expected_change model step in
         (naive_apply model step, ok))
       ([], true) script)

let prop_patricia_change_report =
  QCheck2.Test.make ~name:"add/remove report the model's change" ~count:300
    gen_script (fun script ->
      reports_model_change apply_step (Patricia.create ()) script)


(* The shape depends on the key set only, so iteration order does not
   remember the history of updates: it is ascending prefix order. *)
let prop_patricia_canonical =
  QCheck2.Test.make ~name:"shape independent of update history" ~count:300
    gen_script (fun script ->
      let model, pat = run_script script in
      let listed = Patricia.to_list pat in
      listed = Patricia.to_list (of_list model)
      && List.map fst listed = List.sort P.compare (List.map fst model))


(* ------------------------------------------------------------------ *)
(* Dir24_8                                                             *)
(* ------------------------------------------------------------------ *)

let test_dir24_agreement () =
  let table = Bgp_addr.Prefix_gen.table ~seed:11 ~n:2000 () in
  let bindings = Array.to_list (Array.mapi (fun i p -> (p, i)) table) in
  let dir = Dir24_8.build bindings in
  let pat = of_list bindings in
  Alcotest.(check int) "size" 2000 (Dir24_8.size dir);
  (* Probe with the first address of every prefix plus perturbations. *)
  Array.iter
    (fun p ->
      List.iter
        (fun a ->
          let expect = Patricia.lookup pat a in
          let got = Dir24_8.lookup dir a in
          match expect, got with
          | None, None -> ()
          | Some (ep, ev), Some (gp, gv) ->
            if not (P.equal ep gp && ev = gv) then
              Alcotest.failf "disagree at %s: patricia %s=%d dir %s=%d"
                (I.to_string a) (P.to_string ep) ev (P.to_string gp) gv
          | Some (ep, _), None ->
            Alcotest.failf "dir miss at %s (expected %s)" (I.to_string a)
              (P.to_string ep)
          | None, Some (gp, _) ->
            Alcotest.failf "dir spurious at %s: %s" (I.to_string a)
              (P.to_string gp))
        [ P.first p; P.last p; I.add (P.first p) 1 ])
    table

let test_dir24_long_prefixes () =
  let bindings =
    [ (pfx "10.0.0.0/8", 1); (pfx "10.1.1.128/25", 2); (pfx "10.1.1.192/26", 3);
      (pfx "10.1.1.200/32", 4) ]
  in
  let dir = Dir24_8.build bindings in
  let check a expect =
    match Dir24_8.lookup dir (ip a) with
    | Some (_, v) -> Alcotest.(check int) a expect v
    | None -> Alcotest.failf "miss at %s" a
  in
  check "10.1.1.200" 4;
  check "10.1.1.201" 3;
  check "10.1.1.129" 2;
  check "10.1.1.1" 1;
  check "10.9.9.9" 1;
  Alcotest.(check bool) "memory accounted" true (Dir24_8.memory_bytes dir > 1 lsl 24)

(* Model-based check vs Patricia over random small tables (kept to a
   modest count: each build allocates the 32 MB first-level table). *)
let prop_dir24_vs_patricia =
  QCheck2.Test.make ~name:"dir24_8 agrees with patricia" ~count:15
    QCheck2.Gen.(list_size (int_range 1 60) (pair gen_prefix (int_range 0 100)))
    (fun bindings ->
      (* dedup with later-wins like Dir24_8.build *)
      let tbl = Hashtbl.create 64 in
      List.iter (fun (p, v) -> Hashtbl.replace tbl p v) bindings;
      let dedup = Hashtbl.fold (fun p v acc -> (p, v) :: acc) tbl [] in
      let dir = Dir24_8.build dedup in
      let pat = of_list dedup in
      List.for_all
        (fun (p, _) ->
          List.for_all
            (fun a ->
              match Patricia.lookup pat a, Dir24_8.lookup dir a with
              | None, None -> true
              | Some (ep, ev), Some (gp, gv) -> P.equal ep gp && ev = gv
              | _ -> false)
            [ P.first p; P.last p ])
        dedup)

(* Edge-case differential: the default route (/0), host routes (/32),
   and many >24-bit prefixes packed densely into ONE /24 chunk, so a
   single second-level page carries deep nesting while /0 must answer
   for every address no chunk covers. *)
let gen_dense_chunk_bindings =
  QCheck2.Gen.(
    let with_val g =
      let* p = g in
      let* v = int_range 0 1000 in
      return (p, v)
    in
    let gen_long =
      let* len = int_range 25 32 in
      let* off = int_range 0 255 in
      return (P.make (I.of_octets 10 1 1 off) len)
    in
    let gen_wide =
      let* len = oneofl [ 0; 8; 16; 24 ] in
      let* a = oneofl [ 0; 1; 2 ] in
      return (P.make (I.of_octets 10 a 1 0) len)
    in
    let* longs = list_size (int_range 5 40) (with_val gen_long) in
    let* wides = list_size (int_range 0 6) (with_val gen_wide) in
    let* host = with_val (return (P.make (I.of_octets 10 1 1 77) 32)) in
    let* dflt = with_val (return P.default) in
    return (dflt :: host :: wides @ longs))

let prop_dir24_dense_chunk =
  QCheck2.Test.make ~name:"dir24_8 dense >24 chunk incl /0 and /32" ~count:10
    gen_dense_chunk_bindings
    (fun bindings ->
      let tbl = Hashtbl.create 64 in
      List.iter (fun (p, v) -> Hashtbl.replace tbl p v) bindings;
      let dedup = Hashtbl.fold (fun p v acc -> (p, v) :: acc) tbl [] in
      let dir = Dir24_8.build dedup in
      let pat = of_list dedup in
      let probes =
        List.init 256 (fun o -> I.of_octets 10 1 1 o)
        @ [ I.of_octets 10 1 2 1; I.of_octets 9 9 9 9;
            I.of_octets 255 255 255 255; I.of_octets 0 0 0 0 ]
      in
      List.for_all
        (fun a ->
          match Patricia.lookup pat a, Dir24_8.lookup dir a with
          | None, None -> true
          | Some (ep, ev), Some (gp, gv) -> P.equal ep gp && ev = gv
          | _ -> false)
        probes)

let test_dir24_duplicate_bindings () =
  let dir = Dir24_8.build [ (pfx "10.0.0.0/8", 1); (pfx "10.0.0.0/8", 2) ] in
  Alcotest.(check int) "dedup" 1 (Dir24_8.size dir);
  match Dir24_8.lookup dir (ip "10.1.1.1") with
  | Some (_, 2) -> ()
  | _ -> Alcotest.fail "later binding must win"

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "bgp_lpm"
    [ ( "patricia",
        [ Alcotest.test_case "basic lpm" `Quick test_patricia_basic;
          Alcotest.test_case "default route" `Quick test_patricia_default_route;
          Alcotest.test_case "replace" `Quick test_patricia_replace;
          Alcotest.test_case "remove" `Quick test_patricia_remove;
          Alcotest.test_case "host routes" `Quick test_patricia_slash32;
          Alcotest.test_case "in-place updates" `Quick test_patricia_in_place
        ] );
      qsuite "model-based"
        [ prop_patricia_vs_model; prop_patricia_invariants;
          prop_patricia_find_exact; prop_patricia_change_report;
          prop_patricia_canonical ];
      ( "dir24_8",
        Alcotest.test_case "agrees with patricia" `Slow test_dir24_agreement
        :: Alcotest.test_case "long prefixes" `Quick test_dir24_long_prefixes
        :: Alcotest.test_case "duplicates" `Quick test_dir24_duplicate_bindings
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_dir24_vs_patricia; prop_dir24_dense_chunk ] )
    ]
