(* Full-table scale sweep for the attribute arena: feed an
   Internet-shaped table of [n] prefixes through the receiver path
   (wire decode -> intern -> RIB announce -> export) and report arena
   effectiveness and allocation per processed UPDATE.  This is the
   measurement behind the 250k+-prefix acceptance gate: interning must
   hit > 90% of the time. *)

module A = Bgp_route.Attrs
module I = Bgp_route.Attrs.Interned
module Asn = Bgp_route.Asn
module Msg = Bgp_wire.Msg
module Codec = Bgp_wire.Codec
module Peer = Bgp_route.Peer
module Rib_manager = Bgp_rib.Rib_manager

type cell = {
  sw_prefixes : int;
  sw_updates : int;            (* UPDATE messages decoded and applied *)
  sw_interns : int;
  sw_hits : int;
  sw_hit_rate : float;
  sw_live : int;               (* distinct attribute sets in the arena *)
  sw_saved_bytes : int;
  sw_alloc_per_update : float; (* Gc.allocated_bytes per UPDATE *)
  (* Challenger phase: the same table re-announced by a second peer
     with longer AS paths — every route loses to the incumbent, the
     scenario-5/6 shape — measured wall-clock with no cost-model
     pacing, i.e. the software msgs/sec ceiling the live harness can
     at best approach. *)
  sw_chal_alloc_per_update : float;
  sw_chal_tps : float;         (* prefix transactions per second *)
}

type t = { seed : int; packing : int; cells : cell list }

let speaker_asn = Asn.of_int 65001
let router_asn = Asn.of_int 65000
let router_id = Bgp_addr.Ipv4.of_string_exn "192.0.2.254"
let speaker_addr = Bgp_addr.Ipv4.of_string_exn "192.0.2.1"
let sink_addr = Bgp_addr.Ipv4.of_string_exn "192.0.2.2"

(* Pack each run of consecutive entries sharing an attribute set into
   UPDATEs, like a speaker replaying a table dump; the encodings are
   built before measurement so only the receiver path is on the clock. *)
let encode_table ?(to_attrs = Bgp_speaker.Table_io.to_attrs) ~packing entries
    ~next_hop =
  List.map Codec.encode
    (Codec.updates_of_runs ~max_count:packing
       (List.map
          (fun e ->
            (e.Bgp_speaker.Table_io.e_prefix, I.intern (to_attrs ~next_hop e)))
          entries))

let run_one ~seed ~packing n =
  let entries = Bgp_speaker.Table_io.synthesize ~seed ~n ~speaker_asn () in
  let encoded = encode_table ~packing entries ~next_hop:speaker_addr in
  let rib = Rib_manager.create ~local_asn:router_asn ~router_id () in
  let src =
    Peer.make ~id:1 ~asn:speaker_asn ~router_id:speaker_addr ~addr:speaker_addr
  in
  (* A second EBGP peer keeps the export/rewrite path (which interns
     rewritten attribute sets) in the measurement. *)
  let sink =
    Peer.make ~id:2 ~asn:(Asn.of_int 65002) ~router_id:sink_addr
      ~addr:sink_addr
  in
  Rib_manager.add_peer rib src;
  Rib_manager.add_peer rib sink;
  (* Challengers: the same table from the second peer with one extra
     AS hop, so every route loses to the incumbent on path length —
     the scenario-5/6 workload shape.  Encoded up front, off the
     clock. *)
  let challengers =
    encode_table ~packing entries ~next_hop:sink_addr
      ~to_attrs:(fun ~next_hop e ->
        A.prepend_as (Asn.of_int 65002)
          { (Bgp_speaker.Table_io.to_attrs ~next_hop e) with
            A.next_hop })
  in
  (* Measurement starts from an empty arena so [live] counts this
     table's distinct attribute sets only. *)
  I.clear ();
  let apply ~from buf =
    match Codec.decode buf with
    | Ok (Msg.Update u) -> (
      match u.Msg.attrs with
      | Some interned ->
        Rib_manager.announce_group rib ~from
          ~each:(fun _ _ -> ())
          u.Msg.nlri interned
      | None -> ())
    | Ok _ | Error _ -> invalid_arg "Arena_sweep: bad self-encoded UPDATE"
  in
  (* [Gc.allocated_bytes] counts the minor heap only up to its last
     collection point, so its reading depends on GC phase; a minor
     collection just before each read makes it exact.  The challenger's
     clock window excludes them. *)
  let allocated () =
    Gc.minor ();
    Gc.allocated_bytes ()
  in
  let updates = List.length encoded in
  let before = allocated () in
  List.iter (apply ~from:src) encoded;
  let after = allocated () in
  (* Arena stats reflect the table-load phase only, as before the
     challenger phase existed. *)
  let s = I.stats () in
  let chal_updates = List.length challengers in
  let chal_before = allocated () in
  let chal_t0 = Unix.gettimeofday () in
  List.iter (apply ~from:sink) challengers;
  let chal_dt = Unix.gettimeofday () -. chal_t0 in
  let chal_after = allocated () in
  { sw_prefixes = n; sw_updates = updates;
    sw_interns = s.I.interns; sw_hits = s.I.hits;
    sw_hit_rate = I.hit_rate s; sw_live = s.I.live;
    sw_saved_bytes = s.I.saved_bytes;
    sw_alloc_per_update =
      (if updates = 0 then 0.0
       else (after -. before) /. float_of_int updates);
    sw_chal_alloc_per_update =
      (if chal_updates = 0 then 0.0
       else (chal_after -. chal_before) /. float_of_int chal_updates);
    sw_chal_tps =
      (if chal_dt <= 0.0 then 0.0 else float_of_int n /. chal_dt) }

let run ?(seed = 42) ?(packing = 500) counts =
  List.iter
    (fun n ->
      if n < 1 then
        invalid_arg
          (Printf.sprintf "Arena_sweep: table size must be >= 1, got %d" n))
    counts;
  { seed; packing; cells = List.map (run_one ~seed ~packing) counts }

(* The gate checked at 250k prefixes. *)
let checks t =
  List.map
    (fun c ->
      (Printf.sprintf "n=%d: hit rate > 90%%" c.sw_prefixes, c.sw_hit_rate > 0.9))
    t.cells

let render t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "Attribute-arena scale sweep (wire decode -> RIB announce -> export)\n";
  Buffer.add_string b
    (Printf.sprintf "seed %d, packing %d\n\n" t.seed t.packing);
  Buffer.add_string b
    (Printf.sprintf "%10s %9s %10s %9s %8s %14s %16s %14s %12s\n"
       "prefixes" "updates" "interns" "hit-rate" "live" "saved-bytes"
       "alloc/update-B" "chal-alloc-B" "chal-tps");
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf
           "%10d %9d %10d %8.1f%% %8d %14d %16.0f %14.0f %12.0f\n"
           c.sw_prefixes c.sw_updates c.sw_interns
           (100.0 *. c.sw_hit_rate)
           c.sw_live c.sw_saved_bytes c.sw_alloc_per_update
           c.sw_chal_alloc_per_update c.sw_chal_tps))
    t.cells;
  Buffer.add_char b '\n';
  List.iter
    (fun (desc, ok) ->
      Buffer.add_string b
        (Printf.sprintf "  [%s] %s\n" (if ok then "PASS" else "fail") desc))
    (checks t);
  Buffer.contents b

let to_json t =
  let module J = Bgp_stats.Json in
  J.Obj
    [ ("name", J.Str "arena_sweep");
      ("seed", J.Int t.seed);
      ("packing", J.Int t.packing);
      ( "cells",
        J.List
          (List.map
             (fun c ->
               J.Obj
                 [ ("prefixes", J.Int c.sw_prefixes);
                   ("updates", J.Int c.sw_updates);
                   ("interns", J.Int c.sw_interns);
                   ("hits", J.Int c.sw_hits);
                   ("hit_rate", J.Float c.sw_hit_rate);
                   ("live", J.Int c.sw_live);
                   ("saved_bytes", J.Int c.sw_saved_bytes);
                   ("alloc_per_update", J.Float c.sw_alloc_per_update);
                   ( "challenger_alloc_per_update",
                     J.Float c.sw_chal_alloc_per_update );
                   ("challenger_tps", J.Float c.sw_chal_tps) ])
             t.cells) );
      ( "checks",
        J.Obj (List.map (fun (desc, ok) -> (desc, J.Bool ok)) (checks t)) ) ]
