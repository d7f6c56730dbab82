module R = Bgp_route.Route
module A = Bgp_route.Attrs
module I = Bgp_route.Attrs.Interned
module Peer = Bgp_route.Peer

let default_local_pref = A.default_local_pref

type rule =
  | Local_origin
  | Local_pref
  | Path_length
  | Origin
  | Med
  | Ebgp_over_ibgp
  | Router_id
  | Cluster_list
  | Peer_address
  | Identical

let pp_rule ppf r =
  Format.pp_print_string ppf
    (match r with
    | Local_origin -> "local-origin"
    | Local_pref -> "local-pref"
    | Path_length -> "as-path-length"
    | Origin -> "origin"
    | Med -> "med"
    | Ebgp_over_ibgp -> "ebgp-over-ibgp"
    | Router_id -> "router-id"
    | Cluster_list -> "cluster-list-length"
    | Peer_address -> "peer-address"
    | Identical -> "identical")

(* Rules in chain order; [chain] names one by its position here. *)
let rules =
  [| Identical; Local_origin; Local_pref; Path_length; Origin; Med;
     Ebgp_over_ibgp; Router_id; Cluster_list; Peer_address |]

(* [n] if [c > 0], [-n] if [c < 0]: the verdict of rule [n]. *)
let[@inline] verdict n c = if c > 0 then n else -n

(* The BGP identifier step f ranks by: the ORIGINATOR_ID of a reflected
   route stands in for the advertising peer's (RFC 4456 §9). *)
let[@inline] bgp_id (p : A.pref) (from : Peer.t) =
  if p.A.pr_originator_id >= 0 then p.A.pr_originator_id
  else Bgp_addr.Ipv4.to_int from.Peer.router_id

let[@inline] is_ebgp ~local_asn (from : Peer.t) =
  (not (Peer.is_local from)) && not (Bgp_route.Asn.equal from.Peer.asn local_asn)

(* The one rule chain, over (attribute handle, source peer) pairs so the
   in-place decision of {!Rib_manager} can run it on stored handles
   without building routes.  Returns [0] when the candidates tie through
   every step, else [±n]: positive iff [a] is preferred, [n] the
   position in [rules] of the step that discriminated.  The
   attribute-dependent inputs come from the handles' memoized preference
   tuples ({!Bgp_route.Attrs.pref}), and the chain allocates nothing. *)
let chain ~local_asn ha (fa : Peer.t) hb (fb : Peer.t) =
  let pa = I.pref ha and pb = I.pref hb in
  let c = Bool.compare (Peer.is_local fa) (Peer.is_local fb) in
  if c <> 0 then verdict 1 c
  else
    let c = Int.compare pa.A.pr_local_pref pb.A.pr_local_pref in
    if c <> 0 then verdict 2 c
    else
      let c = Int.compare pb.A.pr_path_len pa.A.pr_path_len in
      if c <> 0 then verdict 3 c
      else
        let c = Int.compare pb.A.pr_origin pa.A.pr_origin in
        if c <> 0 then verdict 4 c
        else
          let c =
            match pa.A.pr_first_hop, pb.A.pr_first_hop with
            | Some na, Some nb when Bgp_route.Asn.equal na nb ->
              Int.compare pb.A.pr_med pa.A.pr_med
            | _ -> 0
          in
          if c <> 0 then verdict 5 c
          else
            let c =
              Bool.compare (is_ebgp ~local_asn fa) (is_ebgp ~local_asn fb)
            in
            if c <> 0 then verdict 6 c
            else
              let c = Int.compare (bgp_id pb fb) (bgp_id pa fa) in
              if c <> 0 then verdict 7 c
              else
                let c = Int.compare pb.A.pr_cluster_len pa.A.pr_cluster_len in
                if c <> 0 then verdict 8 c
                else
                  let c = Bgp_addr.Ipv4.compare fb.Peer.addr fa.Peer.addr in
                  if c <> 0 then verdict 9 c else 0

let better_handle ~local_asn ha fa hb fb = chain ~local_asn ha fa hb fb > 0

let compare_routes ~local_asn a b =
  let v = chain ~local_asn (R.interned a) (R.from a) (R.interned b) (R.from b) in
  (Int.compare v 0, rules.(abs v))

let better ~local_asn a b =
  better_handle ~local_asn (R.interned a) (R.from a) (R.interned b) (R.from b)

let select ~local_asn candidates =
  (* The fold's result is order-dependent because the ranking above is
     not a total order (MED comparability depends on the pair), so the
     caller must present candidates in stable source-peer order
     ({!Bgp_route.Peer.compare}: local routes first, then ascending
     peer id).  {!Bgp_rib.Rib_manager} runs the same fold in place over
     its stored handles, in that order. *)
  match candidates with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun best r -> if better ~local_asn r best then r else best)
         first rest)
