module Prefix = Bgp_addr.Prefix
module Peer = Bgp_route.Peer
module I = Bgp_route.Attrs.Interned
module Metrics = Bgp_stats.Metrics

type config = {
  half_life : float;
  suppress_threshold : float;
  reuse_threshold : float;
  max_suppress : float;
  withdraw_penalty : float;
  attr_change_penalty : float;
}

let test_config =
  { half_life = 2.; suppress_threshold = 1500.; reuse_threshold = 750.;
    max_suppress = 8.; withdraw_penalty = 1000.; attr_change_penalty = 500. }

let ceiling c = c.reuse_threshold *. (2. ** (c.max_suppress /. c.half_life))

type entry = {
  e_peer : Peer.t;
  e_prefix : Prefix.t;
  mutable penalty : float;       (* value as of [updated_at] *)
  mutable updated_at : float;
  mutable suppressed : bool;
  mutable suppressed_at : float;
  mutable last_attrs : I.t option;  (* None = last event was a withdrawal *)
}

module Key = struct
  type t = int * Prefix.t
  let equal (a, p) (b, q) = a = b && Prefix.equal p q
  let hash (a, p) = (a * 0x9e3779b1) lxor Prefix.hash p
end

module Tbl = Hashtbl.Make (Key)

type verdict = Pass | Suppress

type t = {
  cfg : config;
  ceiling : float;
  entries : entry Tbl.t;
  mutable n_suppressed : int;
  c_flaps : Metrics.counter;
  c_suppressions : Metrics.counter;
  c_reuses : Metrics.counter;
  h_reuse_latency : Metrics.histogram;
}

let flaps_name = "damping.flaps"
let suppressions_name = "damping.suppressions"
let reuses_name = "damping.reuses"
let reuse_latency_name = "damping.reuse_latency"
let suppressed_name = "damping.suppressed"

let create ~metrics cfg =
  let t =
    { cfg; ceiling = ceiling cfg; entries = Tbl.create 64; n_suppressed = 0;
      c_flaps = Metrics.counter metrics flaps_name;
      c_suppressions = Metrics.counter metrics suppressions_name;
      c_reuses = Metrics.counter metrics reuses_name;
      h_reuse_latency = Metrics.histogram metrics reuse_latency_name }
  in
  ignore (Metrics.gauge metrics suppressed_name (fun () -> t.n_suppressed));
  t

let config t = t.cfg

let decay t e ~now =
  let dt = now -. e.updated_at in
  if dt > 0. then begin
    e.penalty <- e.penalty *. (2. ** (-.dt /. t.cfg.half_life));
    e.updated_at <- now
  end

let key peer prefix = (peer.Peer.id, prefix)

(* A route whose penalty has decayed well under the reuse threshold and
   which is not suppressed carries no information: forget it so the
   table tracks only routes that are actually flapping. *)
let forgiven t e = (not e.suppressed) && e.penalty < t.cfg.reuse_threshold /. 2.

let charge t e amount =
  e.penalty <- Float.min (e.penalty +. amount) t.ceiling;
  Metrics.incr t.c_flaps

let suppress t e ~now =
  e.suppressed <- true;
  e.suppressed_at <- now;
  t.n_suppressed <- t.n_suppressed + 1;
  Metrics.incr t.c_suppressions

let release t e ~now =
  e.suppressed <- false;
  t.n_suppressed <- t.n_suppressed - 1;
  Metrics.incr t.c_reuses;
  Metrics.observe t.h_reuse_latency (now -. e.suppressed_at)

let on_announce t ~now ~peer ~prefix ~attrs =
  match Tbl.find_opt t.entries (key peer prefix) with
  | None -> Pass (* first sighting: no flap, no state *)
  | Some e ->
    decay t e ~now;
    (match e.last_attrs with
    | Some prev when not (I.equal prev attrs) ->
      charge t e t.cfg.attr_change_penalty
    | _ -> ());
    e.last_attrs <- Some attrs;
    if e.suppressed then
      if e.penalty <= t.cfg.reuse_threshold then begin
        release t e ~now;
        if forgiven t e then Tbl.remove t.entries (key peer prefix);
        Pass
      end
      else Suppress
    else if e.penalty >= t.cfg.suppress_threshold then begin
      suppress t e ~now;
      Suppress
    end
    else begin
      if forgiven t e then Tbl.remove t.entries (key peer prefix);
      Pass
    end

let note_withdraw t ~now ~peer ~prefix =
  let e =
    match Tbl.find_opt t.entries (key peer prefix) with
    | Some e -> decay t e ~now; e
    | None ->
      let e =
        { e_peer = peer; e_prefix = prefix; penalty = 0.; updated_at = now;
          suppressed = false; suppressed_at = now; last_attrs = None }
      in
      Tbl.replace t.entries (key peer prefix) e;
      e
  in
  charge t e t.cfg.withdraw_penalty;
  e.last_attrs <- None;
  if (not e.suppressed) && e.penalty >= t.cfg.suppress_threshold then
    suppress t e ~now

let penalty t ~now ~peer ~prefix =
  match Tbl.find_opt t.entries (key peer prefix) with
  | None -> 0.
  | Some e -> e.penalty *. (2. ** (-.(now -. e.updated_at) /. t.cfg.half_life))

let suppressed_count t = t.n_suppressed

let reuse_time t e =
  (* Solve penalty * 2^(-(x - updated)/hl) = reuse for x. *)
  if e.penalty <= t.cfg.reuse_threshold then e.updated_at
  else
    e.updated_at
    +. t.cfg.half_life *. (log (e.penalty /. t.cfg.reuse_threshold) /. log 2.)

let next_reuse_at t =
  Tbl.fold
    (fun _ e acc ->
      if not e.suppressed then acc
      else
        let at = reuse_time t e in
        match acc with Some b when b <= at -> acc | _ -> Some at)
    t.entries None

let take_reusable t ~now =
  let ready =
    Tbl.fold
      (fun _ e acc ->
        if e.suppressed then begin
          decay t e ~now;
          if e.penalty <= t.cfg.reuse_threshold then e :: acc else acc
        end
        else acc)
      t.entries []
  in
  let ready =
    List.sort
      (fun a b ->
        match compare a.e_peer.Peer.id b.e_peer.Peer.id with
        | 0 -> Prefix.compare a.e_prefix b.e_prefix
        | c -> c)
      ready
  in
  List.filter_map
    (fun e ->
      release t e ~now;
      let out =
        match e.last_attrs with
        | Some attrs -> Some (e.e_peer, e.e_prefix, attrs)
        | None -> None
      in
      if forgiven t e then Tbl.remove t.entries (key e.e_peer e.e_prefix);
      out)
    ready

let flaps t = Metrics.value t.c_flaps
let suppressions t = Metrics.value t.c_suppressions
let reuses t = Metrics.value t.c_reuses

let flaps_in m = Metrics.counter_value m flaps_name
let suppressions_in m = Metrics.counter_value m suppressions_name
let reuses_in m = Metrics.counter_value m reuses_name
let suppressed_in m = Metrics.gauge_value m suppressed_name
let reuse_latency_in m = Metrics.histogram_summary m reuse_latency_name
