module R = Bgp_route.Route
module A = Bgp_route.Attrs

type cond =
  | Prefix_in of Bgp_addr.Prefix_set.t
  | Prefix_exact of Bgp_addr.Prefix_set.t
  | Prefix_len_range of int * int
  | Path_contains of Bgp_route.Asn.t
  | Neighbor_as of Bgp_route.Asn.t
  | Origin_as of Bgp_route.Asn.t
  | Path_len_at_least of int
  | Has_community of Bgp_route.Community.t
  | Med_at_most of int
  | Origin_is of Bgp_route.Attrs.origin
  | All of cond list
  | Any of cond list
  | Not of cond

type action =
  | Set_local_pref of int
  | Clear_local_pref
  | Set_med of int
  | Clear_med
  | Prepend_path of Bgp_route.Asn.t * int
  | Add_community of Bgp_route.Community.t
  | Strip_communities
  | Set_next_hop of Bgp_addr.Ipv4.t

type verdict = Accept of action list | Reject

type term = { term_name : string; conds : cond list; verdict : verdict }

type t = { name : string; terms : term list; default : [ `Accept | `Reject ] }

let make ?(default = `Accept) ~name terms = { name; terms; default }
let name t = t.name
let terms t = t.terms
let accept_all = { name = "accept-all"; terms = []; default = `Accept }
let reject_all = { name = "reject-all"; terms = []; default = `Reject }
let is_accept_all = function { terms = []; default = `Accept; _ } -> true | _ -> false

(* [matches_counted] threads [apply]'s work counter, so [matches] and
   [apply] share the evaluation logic instead of re-implementing it. *)
let rec matches_counted count c r =
  incr count;
  let attrs = R.attrs r in
  match c with
  | Prefix_in set -> Bgp_addr.Prefix_set.best_covering (R.prefix r) set <> None
  | Prefix_exact set -> Bgp_addr.Prefix_set.mem (R.prefix r) set
  | Prefix_len_range (lo, hi) ->
    let l = Bgp_addr.Prefix.len (R.prefix r) in
    l >= lo && l <= hi
  | Path_contains a -> Bgp_route.As_path.contains a attrs.A.as_path
  | Neighbor_as a ->
    (match Bgp_route.As_path.first_hop attrs.A.as_path with
    | Some h -> Bgp_route.Asn.equal h a
    | None -> false)
  | Origin_as a ->
    (match Bgp_route.As_path.origin_as attrs.A.as_path with
    | Some h -> Bgp_route.Asn.equal h a
    | None -> false)
  | Path_len_at_least n -> Bgp_route.As_path.length attrs.A.as_path >= n
  | Has_community c -> A.has_community c attrs
  | Med_at_most n -> (match attrs.A.med with Some m -> m <= n | None -> false)
  | Origin_is o -> attrs.A.origin = o
  | All cs -> List.for_all (fun c -> matches_counted count c r) cs
  | Any cs -> List.exists (fun c -> matches_counted count c r) cs
  | Not c -> not (matches_counted count c r)

let matches c r =
  let count = ref 0 in
  matches_counted count c r

let apply_action act r =
  let attrs = R.attrs r in
  let attrs =
    match act with
    | Set_local_pref v -> A.with_local_pref (Some v) attrs
    | Clear_local_pref -> A.with_local_pref None attrs
    | Set_med v -> A.with_med (Some v) attrs
    | Clear_med -> A.with_med None attrs
    | Prepend_path (a, n) ->
      A.with_as_path (Bgp_route.As_path.prepend_n a n attrs.A.as_path) attrs
    | Add_community c -> A.add_community c attrs
    | Strip_communities -> { attrs with A.communities = [] }
    | Set_next_hop nh -> { attrs with A.next_hop = nh }
  in
  R.make ~prefix:(R.prefix r) ~attrs ~from:(R.from r)

let apply t r =
  let count = ref 0 in
  let rec go = function
    | [] -> (match t.default with `Accept -> Some r | `Reject -> None)
    | term :: rest ->
      if List.for_all (fun c -> matches_counted count c r) term.conds then
        match term.verdict with
        | Reject -> None
        | Accept actions -> Some (List.fold_left (fun r a -> apply_action a r) r actions)
      else go rest
  in
  let result = go t.terms in
  (* Even the empty policy costs one unit: the router must still run
     the route through the (trivial) filter stage. *)
  (result, max 1 !count)

let eval t r = fst (apply t r)

let pp_verdict ppf = function
  | Reject -> Format.pp_print_string ppf "reject"
  | Accept [] -> Format.pp_print_string ppf "accept"
  | Accept acts -> Format.fprintf ppf "accept (%d actions)" (List.length acts)

let pp ppf t =
  Format.fprintf ppf "@[<v>policy %s (default %s)" t.name
    (match t.default with `Accept -> "accept" | `Reject -> "reject");
  List.iter
    (fun term ->
      Format.fprintf ppf "@,  term %s: %d conds -> %a" term.term_name
        (List.length term.conds) pp_verdict term.verdict)
    t.terms;
  Format.fprintf ppf "@]"
