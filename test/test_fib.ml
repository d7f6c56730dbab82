open Bgp_fib
module P = Bgp_addr.Prefix
module I = Bgp_addr.Ipv4

let ip = I.of_string_exn
let pfx = P.of_string_exn

let nh port = { Fib.nh_addr = ip (Printf.sprintf "10.0.0.%d" port); nh_port = port }

(* ------------------------------------------------------------------ *)
(* Model-based property tests: Hash_lpm vs naive                       *)
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
    | Some w when w = v -> `Add Hash_lpm.Unchanged
    | Some _ -> `Add Hash_lpm.Replaced
    | None -> `Add Hash_lpm.Added)
  | SRemove p -> `Remove (List.mem_assoc p model)


let apply_hash_step hash = function
  | SAdd (p, v) -> `Add (Hash_lpm.add ~equal:Int.equal hash p v)
  | SRemove p -> `Remove (Hash_lpm.remove hash p)


let run_script script =
  let model = List.fold_left naive_apply [] script in
  let hash = Hash_lpm.create () in
  List.iter (fun step -> ignore (apply_hash_step hash step)) script;
  (model, hash)

let probe_addrs =
  [ "10.0.0.1"; "10.17.64.1"; "10.255.128.1"; "10.128.0.1"; "11.0.0.1";
    "0.0.0.0"; "255.255.255.255"; "10.3.128.200" ]
  |> List.map ip


let prop_hash_vs_model =
  QCheck2.Test.make ~name:"hash_lpm agrees with naive model" ~count:300 gen_script
    (fun script ->
      let model, hash = run_script script in
      Hash_lpm.size hash = List.length model
      && List.for_all
           (fun a ->
             match naive_lookup model a, Hash_lpm.lookup hash a with
             | None, None -> true
             | Some (p, v), Some (q, w) -> P.equal p q && v = w
             | _ -> false)
           probe_addrs)


(* Every step of [script] applied to [t] reports the change it makes to
   the model. *)
let reports_model_change apply t script =
  snd
    (List.fold_left
       (fun (model, ok) step ->
         let ok = ok && apply t step = expected_change model step in
         (naive_apply model step, ok))
       ([], true) script)


let prop_hash_change_report =
  QCheck2.Test.make ~name:"hash_lpm add/remove report the model's change"
    ~count:300 gen_script (fun script ->
      reports_model_change apply_hash_step (Hash_lpm.create ()) script)


(* ------------------------------------------------------------------ *)
(* Fib vs naive model, checked after every step                        *)
(* ------------------------------------------------------------------ *)

type fib_step = FAdd of P.t * int | FReplace of P.t * int | FWithdraw of P.t

(* Ports 1-3 only, so repeated installs of the same next hop occur. *)
let gen_fib_step =
  QCheck2.Gen.(
    let* p = gen_prefix and* port = int_range 1 3 in
    frequency
      [ (3, return (FAdd (p, port))); (2, return (FReplace (p, port)));
        (2, return (FWithdraw p)) ])

let gen_addr =
  QCheck2.Gen.(
    let* first = frequency [ (4, return 10); (1, int_range 0 255) ]
    and* a = int_range 0 255
    and* b = oneofl [ 0; 64; 128; 255 ]
    and* c = int_range 0 255 in
    return (I.of_octets first a b c))

let fib_delta = function
  | FAdd (p, port) -> Fib.Add (p, nh port)
  | FReplace (p, port) -> Fib.Replace (p, nh port)
  | FWithdraw p -> Fib.Withdraw p

(* The model is an association list from prefix to port. *)
let fib_model_step model = function
  | FAdd (p, port) | FReplace (p, port) ->
    (List.assoc_opt p model <> Some port, (p, port) :: List.remove_assoc p model)
  | FWithdraw p -> (List.mem_assoc p model, List.remove_assoc p model)

let rec strictly_ascending = function
  | (p, _) :: ((q, _) :: _ as rest) -> P.compare p q < 0 && strictly_ascending rest
  | _ -> true

let prop_fib_vs_model =
  QCheck2.Test.make ~name:"fib agrees with naive model at every step" ~count:200
    QCheck2.Gen.(
      pair (list_size (int_range 0 80) gen_fib_step)
        (list_size (int_range 1 8) gen_addr))
    (fun (script, addrs) ->
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let f = Fib.create () in
      let check (model, (expect : Fib.stats)) step =
        let delta = fib_delta step in
        let changed, model = fib_model_step model step in
        let got = Fib.apply f delta in
        if got <> changed then fail "%a: apply returned %b" Fib.pp_delta delta got;
        let probes =
          addrs @ List.concat_map (fun (p, _) -> [ P.first p; P.last p ]) model
        in
        List.iter
          (fun a ->
            let got = Option.map (fun (p, h) -> (p, h.Fib.nh_port)) (Fib.lookup f a) in
            if got <> naive_lookup model a then
              fail "after %a: lookup %s disagrees" Fib.pp_delta delta (I.to_string a))
          probes;
        let expect =
          let expect = { expect with lookups = expect.lookups + List.length probes } in
          match step with
          | FAdd _ -> { expect with adds = expect.adds + 1 }
          | FReplace _ -> { expect with replaces = expect.replaces + 1 }
          | FWithdraw _ -> { expect with withdraws = expect.withdraws + 1 }
        in
        if Fib.stats f <> expect then fail "after %a: stats disagree" Fib.pp_delta delta;
        if Fib.size f <> List.length model then
          fail "after %a: size %d, model %d" Fib.pp_delta delta (Fib.size f)
            (List.length model);
        let listed = List.map (fun (p, h) -> (p, h.Fib.nh_port)) (Fib.to_list f) in
        if not (strictly_ascending listed && listed = List.sort compare model) then
          fail "after %a: to_list disagrees" Fib.pp_delta delta;
        (model, expect)
      in
      ignore
        (List.fold_left check
           ([], { Fib.adds = 0; replaces = 0; withdraws = 0; lookups = 0 })
           script);
      true)

(* ------------------------------------------------------------------ *)
(* Fib (deltas + stats)                                                *)
(* ------------------------------------------------------------------ *)

let test_fib_deltas () =
  let f = Fib.create () in
  Alcotest.(check bool) "add" true (Fib.apply f (Fib.Add (pfx "10.0.0.0/8", nh 1)));
  Alcotest.(check bool) "dup add no-op" false
    (Fib.apply f (Fib.Add (pfx "10.0.0.0/8", nh 1)));
  Alcotest.(check bool) "replace" true
    (Fib.apply f (Fib.Replace (pfx "10.0.0.0/8", nh 2)));
  Alcotest.(check bool) "same replace no-op" false
    (Fib.apply f (Fib.Replace (pfx "10.0.0.0/8", nh 2)));
  Alcotest.(check int) "size" 1 (Fib.size f);
  Alcotest.(check bool) "withdraw" true (Fib.apply f (Fib.Withdraw (pfx "10.0.0.0/8")));
  Alcotest.(check bool) "missing withdraw no-op" false
    (Fib.apply f (Fib.Withdraw (pfx "10.0.0.0/8")));
  Alcotest.(check int) "empty" 0 (Fib.size f);
  let s = Fib.stats f in
  Alcotest.(check int) "adds" 2 s.Fib.adds;
  Alcotest.(check int) "replaces" 2 s.Fib.replaces;
  Alcotest.(check int) "withdraws" 2 s.Fib.withdraws

let test_fib_lookup_and_withdraw () =
  let f = Fib.create () in
  let changed =
    Fib.apply_all f
      [ Fib.Add (pfx "10.0.0.0/8", nh 1); Fib.Add (pfx "10.1.0.0/16", nh 2);
        Fib.Add (pfx "10.1.0.0/16", nh 2) ]
  in
  Alcotest.(check int) "changed" 2 changed;
  (match Fib.lookup f (ip "10.1.2.3") with
  | Some (p, h) ->
    Alcotest.(check string) "lpm" "10.1.0.0/16" (P.to_string p);
    Alcotest.(check int) "port" 2 h.Fib.nh_port
  | None -> Alcotest.fail "lookup miss");
  ignore (Fib.apply f (Fib.Withdraw (pfx "10.1.0.0/16")));
  Alcotest.(check int) "fib shrunk" 1 (Fib.size f);
  (match Fib.lookup f (ip "10.1.2.3") with
  | Some (p, _) -> Alcotest.(check string) "falls back" "10.0.0.0/8" (P.to_string p)
  | None -> Alcotest.fail "lookup miss after withdraw");
  Alcotest.(check int) "lookups counted" 2 (Fib.stats f).Fib.lookups

(* Minor-heap words allocated by [f ()]. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Only an [Add] of a new prefix allocates (its binding): a [Replace]
   overwrites the binding in place and a [Withdraw] unlinks it. *)
let test_fib_apply_allocation () =
  let table = Bgp_addr.Prefix_gen.table ~seed:5 ~n:10_000 () in
  let f = Fib.create () in
  Array.iter (fun p -> ignore (Fib.apply f (Fib.Add (p, nh 1)))) table;
  let n = Array.length table in
  let cpl =
    minor_words (fun () ->
        for i = 0 to n - 1 do
          let a = P.addr table.(i) and b = P.addr table.((i + 1) mod n) in
          ignore (Sys.opaque_identity (I.common_prefix_len a b))
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "common_prefix_len allocates nothing (%.0f words)" cpl)
    true (cpl = 0.);
  let per_delta deltas =
    minor_words (fun () ->
        for i = 0 to n - 1 do
          ignore (Fib.apply f deltas.(i))
        done)
    /. float_of_int n
  in
  let check_none what deltas =
    let words = per_delta deltas in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.1f words/delta = 0" what words)
      true (words = 0.)
  in
  let replace = Array.map (fun p -> Fib.Replace (p, nh 2)) table in
  check_none "replace" replace;
  check_none "unchanged replace" replace;
  check_none "withdraw" (Array.map (fun p -> Fib.Withdraw p) table);
  Alcotest.(check int) "emptied" 0 (Fib.size f)

(* Every router holds a FIB, and topologies run thousands of routers:
   an empty one must start small. *)
let test_fib_empty_footprint () =
  let fibs = Array.init 100 (fun _ -> Fib.create ()) in
  let bytes = Obj.reachable_words (Obj.repr fibs) * (Sys.word_size / 8) in
  let each = (bytes - ((Array.length fibs + 1) * (Sys.word_size / 8))) / 100 in
  Alcotest.(check bool)
    (Printf.sprintf "empty fib retains %d B <= 1024 B" each)
    true (each <= 1024)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "bgp_fib"
    [ qsuite "model-based"
        [ prop_hash_vs_model; prop_hash_change_report; prop_fib_vs_model ];
      ( "fib",
        [ Alcotest.test_case "delta semantics" `Quick test_fib_deltas;
          Alcotest.test_case "lookup and withdraw" `Quick test_fib_lookup_and_withdraw;
          Alcotest.test_case "apply allocation" `Quick test_fib_apply_allocation;
          Alcotest.test_case "empty footprint" `Quick test_fib_empty_footprint
        ] )
    ]
