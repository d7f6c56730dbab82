(* Workload [full-table]: one in-process receiver (Rib_manager with
   peers A, B, C plus a Fib), no clock, scheduler or socket.  A
   pre-encoded Internet-shaped table goes through decode -> RIB -> FIB
   -> export encode in three phases that use the same layers
   differently:

   - load: A announces every prefix (all new, every prefix an FIB Add);
   - challenger: B re-announces the table one or two hops longer,
     alternating per pass, so every route loses — no FIB change and no
     export; the decision fast path should take nearly every update;
   - failover: A withdraws everything, so every best moves to B with an
     FIB Replace and a re-export.

   Nearly all time goes to per-prefix RIB, decision, FIB and export work
   on ~80 MB of routing state, touched in no cache-friendly order. *)

module A = Bgp_route.Attrs
module I = Bgp_route.Attrs.Interned
module Asn = Bgp_route.Asn
module Peer = Bgp_route.Peer
module Ipv4 = Bgp_addr.Ipv4
module Msg = Bgp_wire.Msg
module Codec = Bgp_wire.Codec
module Rib = Bgp_rib.Rib_manager
module Fib = Bgp_fib.Fib
module Loc_rib = Bgp_rib.Loc_rib
module Table_io = Bgp_speaker.Table_io
module Workload = Bgp_speaker.Workload
module S = Probe.Samples

type size = { prefixes : int; challenger_passes : int }

let full = { prefixes = 250_000; challenger_passes = 4 }
let toy = { prefixes = 3_000; challenger_passes = 2 }

(* Prefixes per UPDATE, in the input and in the export encoding. *)
let packing = 500

(* Set-up is repeated and its median reported, so that set-up time is
   steady enough to gate on. *)
let setup_reps = 3

let router_asn = Asn.of_int 65000
let router_id = Ipv4.of_string_exn "192.0.2.254"

let peer id asn addr =
  let addr = Ipv4.of_string_exn addr in
  Peer.make ~id ~asn:(Asn.of_int asn) ~router_id:addr ~addr

let peer_a = peer 1 65001 "192.0.2.1"  (* source *)
let peer_b = peer 2 65002 "192.0.2.2"  (* challenger *)
let peer_c = peer 3 65003 "192.0.2.3"  (* monitor *)

(* ------------------------------------------------------------------ *)
(* Input, encoded off the clock                                        *)
(* ------------------------------------------------------------------ *)

type input = {
  n : int;
  load : string array;  (* A's table *)
  challengers : string array array;  (* B's table, +1 and +2 hops *)
  withdrawals : string array;  (* A withdraws everything *)
}

(* Encode the table as an Adj-RIB-Out would send it: grouped by
   attribute set (groups in first-seen order), up to [packing] prefixes
   per UPDATE. *)
let encode_grouped entries attrs_of =
  let groups = I.Tbl.create 4096 in
  let order = ref [] in
  List.iter
    (fun (e : Table_io.entry) ->
      let h = I.intern (attrs_of e) in
      match I.Tbl.find_opt groups h with
      | Some ps -> ps := e.e_prefix :: !ps
      | None ->
        I.Tbl.add groups h (ref [ e.e_prefix ]);
        order := h :: !order)
    entries;
  List.rev !order
  |> List.concat_map (fun h ->
         let ps = Array.of_list (List.rev !(I.Tbl.find groups h)) in
         List.map
           (fun chunk -> Codec.encode (Msg.announcement_interned h chunk))
           (Workload.chunk packing ps))
  |> Array.of_list

let make_input ~seed ~n =
  let entries =
    Table_io.synthesize ~seed ~n ~speaker_asn:peer_a.Peer.asn ()
  in
  let via_a e = Table_io.to_attrs ~next_hop:peer_a.Peer.addr e in
  let via_b hops e =
    let rec prepend k a =
      if k = 0 then a else prepend (k - 1) (A.prepend_as peer_b.Peer.asn a)
    in
    prepend hops (Table_io.to_attrs ~next_hop:peer_b.Peer.addr e)
  in
  let prefixes =
    Array.of_list (List.map (fun (e : Table_io.entry) -> e.e_prefix) entries)
  in
  let input =
    { n;
      load = encode_grouped entries via_a;
      challengers =
        [| encode_grouped entries (via_b 1); encode_grouped entries (via_b 2) |];
      withdrawals =
        Array.of_list
          (List.map
             (fun chunk -> Codec.encode (Msg.withdrawal chunk))
             (Workload.chunk packing prefixes)) }
  in
  (* Setup interned attribute sets; measurement starts from an empty
     arena. *)
  I.clear ();
  input

(* ------------------------------------------------------------------ *)
(* The receiver                                                        *)
(* ------------------------------------------------------------------ *)

type state = {
  rib : Rib.t;
  fib : Fib.t;
  exports : (int * int, I.t option * Bgp_addr.Prefix.t list ref) Hashtbl.t;
      (* one input UPDATE's announcements, keyed by (dest, attrs id) *)
  mutable deltas : int;
  mutable noops : int;  (* deltas that left the FIB unchanged *)
  mutable candidates : int;
  mutable msgs_out : int;
}

let fresh () =
  let rib = Rib.create ~local_asn:router_asn ~router_id () in
  List.iter (Rib.add_peer rib) [ peer_a; peer_b; peer_c ];
  { rib; fib = Fib.create (); exports = Hashtbl.create 16; deltas = 0;
    noops = 0; candidates = 0; msgs_out = 0 }

let add_export st (a : Rib.announcement) =
  let key =
    ( a.dest.Peer.id,
      match a.ann_attrs with None -> -1 | Some h -> I.id h )
  in
  match Hashtbl.find_opt st.exports key with
  | Some (_, ps) -> ps := a.ann_prefix :: !ps
  | None -> Hashtbl.add st.exports key (a.ann_attrs, ref [ a.ann_prefix ])

(* Encode the collected announcements, one UPDATE per (dest, attrs) and
   [packing] prefixes. *)
let flush_exports st =
  Hashtbl.iter
    (fun _ (attrs, ps) ->
      List.iter
        (fun chunk ->
          let msg =
            match attrs with
            | Some h -> Msg.announcement_interned h chunk
            | None -> Msg.withdrawal chunk
          in
          ignore (Sys.opaque_identity (Codec.encode msg));
          st.msgs_out <- st.msgs_out + 1)
        (Workload.chunk packing (Array.of_list (List.rev !ps))))
    st.exports;
  Hashtbl.clear st.exports

let apply_delta st d =
  st.deltas <- st.deltas + 1;
  if not (Fib.apply st.fib d) then st.noops <- st.noops + 1

let apply_outcome st (o : Rib.outcome) =
  st.candidates <- st.candidates + o.candidates;
  List.iter (apply_delta st) o.fib_deltas;
  List.iter (add_export st) o.announcements

let decode_update buf =
  match Codec.decode buf with
  | Ok (Msg.Update u) -> u
  | Ok _ | Error _ -> failwith "full-table: undecodable input UPDATE"

let process st ~from buf =
  let u = decode_update buf in
  List.iter (fun p -> apply_outcome st (Rib.withdraw st.rib ~from p)) u.withdrawn;
  (match u.attrs with
  | Some h when u.nlri <> [] ->
    Rib.announce_group st.rib ~from ~each:(fun _ o -> apply_outcome st o)
      u.nlri h
  | _ -> ());
  flush_exports st

(* The same work as [process], timed from outside at each layer
   boundary.  RIB self time per prefix is the interval between
   consecutive [announce_group] callbacks minus the FIB and export work
   done inside the callback. *)
type probe = {
  spans : Probe.spans;
  decode : S.t;  (* ns per decoded UPDATE *)
  mutable encode_ns : int;
  rib_announce : S.t;  (* ns per announced prefix, self time *)
  rib_withdraw : S.t;  (* ns per withdrawn prefix *)
  fib_apply : S.t;  (* ns per FIB delta *)
  mutable next_id : int;
}

let apply_outcome_traced st p (o : Rib.outcome) =
  st.candidates <- st.candidates + o.candidates;
  List.iter
    (fun d ->
      let t0 = Probe.now_ns () in
      apply_delta st d;
      S.add p.fib_apply (Probe.now_ns () - t0))
    o.fib_deltas;
  List.iter (add_export st) o.announcements

let process_traced st p ~from buf =
  let id = p.next_id in
  p.next_id <- id + 1;
  let t0 = Probe.now_ns () in
  let u = decode_update buf in
  let t1 = Probe.now_ns () in
  S.add p.decode (t1 - t0);
  List.iter
    (fun pfx ->
      let r0 = Probe.now_ns () in
      let o = Rib.withdraw st.rib ~from pfx in
      S.add p.rib_withdraw (Probe.now_ns () - r0);
      apply_outcome_traced st p o)
    u.withdrawn;
  (match u.attrs with
  | Some h when u.nlri <> [] ->
    let last = ref (Probe.now_ns ()) in
    Rib.announce_group st.rib ~from
      ~each:(fun _ o ->
        S.add p.rib_announce (Probe.now_ns () - !last);
        apply_outcome_traced st p o;
        last := Probe.now_ns ())
      u.nlri h
  | _ -> ());
  let t2 = Probe.now_ns () in
  flush_exports st;
  let t3 = Probe.now_ns () in
  p.encode_ns <- p.encode_ns + (t3 - t2);
  let span = Probe.span p.spans ~id in
  span ~name:"update" ~parent:"" ~start:t0 ~stop:t3;
  span ~name:"wire.decode" ~parent:"update" ~start:t0 ~stop:t1;
  span ~name:"rib+fib" ~parent:"update" ~start:t1 ~stop:t2;
  span ~name:"wire.encode" ~parent:"update" ~start:t2 ~stop:t3

(* ------------------------------------------------------------------ *)
(* One round: fresh receiver, load, challenger passes, failover        *)
(* ------------------------------------------------------------------ *)

type phase = { secs : float; alloc_b : float; updates : int; majors : int }

let run_phase st probe ~from bufs =
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let a0 = Gc.allocated_bytes () in
  let t0 = Probe.now_ns () in
  (match probe with
  | None -> Array.iter (process st ~from) bufs
  | Some p -> Array.iter (process_traced st p ~from) bufs);
  let secs = Probe.seconds_since t0 in
  { secs; alloc_b = Gc.allocated_bytes () -. a0; updates = Array.length bufs;
    majors = (Gc.quick_stat ()).Gc.major_collections - majors0 }

let sum_phases = function
  | [] -> { secs = 0.0; alloc_b = 0.0; updates = 0; majors = 0 }
  | p :: rest ->
    List.fold_left
      (fun a b ->
        { secs = a.secs +. b.secs; alloc_b = a.alloc_b +. b.alloc_b;
          updates = a.updates + b.updates; majors = a.majors + b.majors })
      p rest

type round = {
  load : phase;
  challenger : phase;  (* all passes *)
  failover : phase;
  retained_b : float;  (* major-heap growth across the load phase *)
  arena : I.arena_stats;  (* after the load phase *)
  failed : int;
}

let via st addr =
  let c = ref 0 in
  Fib.iter (fun _ nh -> if Ipv4.equal nh.Fib.nh_addr addr then incr c) st.fib;
  !c

(* The Loc-RIB's route objects.  [Loc_rib] keeps the stored route when
   an update leaves it equal, so the same objects before and after a
   phase mean an unchanged Loc-RIB (and Loc-RIB fingerprint), checked
   in O(n) without rendering every route. *)
let loc_routes st = Loc_rib.fold (fun r acc -> r :: acc) (Rib.loc_rib st.rib) []

(* Digest of the final routing state: the Loc-RIB fingerprint and every
   FIB entry.  Used to compare runs, off the clock. *)
let fingerprint st =
  let b = Buffer.create (16 * Fib.size st.fib) in
  Buffer.add_string b (Loc_rib.fingerprint (Rib.loc_rib st.rib));
  Fib.iter
    (fun p nh ->
      Buffer.add_string b (Bgp_addr.Prefix.to_string p);
      Buffer.add_char b ' ';
      Buffer.add_string b (Ipv4.to_string nh.Fib.nh_addr);
      Buffer.add_char b '\n')
    st.fib;
  Digest.to_hex (Digest.string (Buffer.contents b))

let live_bytes () =
  Gc.full_major ();
  float_of_int ((Gc.quick_stat ()).Gc.live_words * (Sys.word_size / 8))

let round ?probe size (input : input) =
  I.clear ();
  let st = fresh () in
  let live0 = live_bytes () in
  let load = run_phase st probe ~from:peer_a input.load in
  let retained_b = live_bytes () -. live0 in
  let arena = I.stats () in
  (* Oracle, off the clock: every prefix in the FIB via A ... *)
  let failed_load = input.n - via st peer_a.Peer.addr in
  let loaded = loc_routes st in
  let deltas0 = st.deltas in
  let challenger =
    sum_phases
      (List.init size.challenger_passes (fun i ->
           run_phase st probe ~from:peer_b input.challengers.(i mod 2)))
  in
  (* ... challengers change neither the FIB nor the Loc-RIB ... *)
  let failed_challenger =
    if st.deltas = deltas0 && List.for_all2 ( == ) loaded (loc_routes st) then 0
    else input.n * size.challenger_passes
  in
  let failover = run_phase st probe ~from:peer_a input.withdrawals in
  (* ... and after failover every prefix is in the FIB via B. *)
  let failed_failover = input.n - via st peer_b.Peer.addr in
  ( { load; challenger; failover; retained_b; arena;
      failed = failed_load + failed_challenger + failed_failover },
    st )

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let pfx_s n secs = float_of_int n /. secs

(* Prefix operations per second over one pass of each phase. *)
let throughput size n r =
  pfx_s (3 * n)
    (r.load.secs
    +. (r.challenger.secs /. float_of_int size.challenger_passes)
    +. r.failover.secs)

let phase_rates size n r =
  [ ("table_load_pfx_s", pfx_s n r.load.secs);
    ("challenger_pfx_s", pfx_s (n * size.challenger_passes) r.challenger.secs);
    ("failover_pfx_s", pfx_s n r.failover.secs);
    ("rib_bytes_per_route", r.retained_b /. float_of_int n) ]

(* Earlier set-ups are dropped at once, so only one input is live. *)
let setup ~seed size =
  let timed () =
    Gc.full_major ();
    let t0 = Probe.now_ns () in
    let input = make_input ~seed ~n:size.prefixes in
    (input, Probe.seconds_since t0)
  in
  let times = List.init (setup_reps - 1) (fun _ -> snd (timed ())) in
  let input, t = timed () in
  (input, Probe.median (t :: times))

let note_round size n r =
  Printf.sprintf
    "full-table n=%d: load %.0f pfx/s, challenger %.0f pfx/s (%d passes), \
     failover %.0f pfx/s, %.0f B/route retained"
    n (pfx_s n r.load.secs)
    (pfx_s (n * size.challenger_passes) r.challenger.secs)
    size.challenger_passes (pfx_s n r.failover.secs)
    (r.retained_b /. float_of_int n)

(* Untraced: rounds until [seconds] of measurement have passed; every
   figure is the median over rounds. *)
let run_untraced ~seed ~seconds size =
  let input, setup_s = setup ~seed size in
  let n = input.n in
  let t0 = Probe.now_ns () in
  (* Only the last round's receiver survives the loop, so no round
     runs beside another one's heap. *)
  let rec loop acc =
    let r, st = round size input in
    if Probe.seconds_since t0 >= seconds then (List.rev (r :: acc), st)
    else loop (r :: acc)
  in
  let rounds, last = loop [] in
  let med f = Probe.median (List.map f rounds) in
  let named =
    List.map
      (fun (name, _) ->
        (name, med (fun r -> List.assoc name (phase_rates size n r))))
      (phase_rates size n (List.hd rounds))
  in
  { Probe.attempted =
      List.length rounds * n * (2 + size.challenger_passes);
    failed = List.fold_left (fun a r -> a + r.failed) 0 rounds;
    metrics =
      ("throughput", med (throughput size n)) :: ("setup_s", setup_s) :: named;
    fingerprint = fingerprint last;
    notes =
      Printf.sprintf "full-table: setup %.3f s (median of %d), %d rounds:"
        setup_s setup_reps (List.length rounds)
      :: List.map (note_round size n) rounds }

(* Traced: one untraced round (the reference for the tracing overhead
   and the source of the allocation and memory figures), then one
   traced round for the per-layer timings. *)
let run_traced ~seed size =
  let input, _ = setup ~seed size in
  let n = input.n in
  let plain, plain_st = round size input in
  let plain_fp = fingerprint plain_st in
  let p =
    { spans = Probe.spans ~process:"full-table"; decode = S.create ();
      encode_ns = 0; rib_announce = S.create (); rib_withdraw = S.create ();
      fib_apply = S.create (); next_id = 0 }
  in
  let traced, st = round ~probe:p size input in
  let traced_fp = fingerprint st in
  let total r = r.load.secs +. r.challenger.secs +. r.failover.secs in
  let per_update ph = ph.alloc_b /. float_of_int ph.updates in
  let fib_stats = Fib.stats st.fib in
  let rs = Rib.stats st.rib in
  let msgs_out = st.msgs_out in
  let metrics =
    phase_rates size n plain
    @ [ ("wire.decode_ns_per_msg", Probe.ratio (S.sum p.decode) (S.count p.decode));
        ("wire.encode_ns_per_msg", Probe.ratio p.encode_ns msgs_out);
        ("wire.msgs_decoded", float_of_int (S.count p.decode));
        ("arena.hit_ratio", I.hit_rate traced.arena);
        ("arena.live_sets", float_of_int traced.arena.I.live);
        ("rib.announce_ns_p50", S.quantile p.rib_announce 0.5);
        ("rib.announce_ns_p99", S.quantile p.rib_announce 0.99);
        ("rib.withdraw_ns_p50", S.quantile p.rib_withdraw 0.5);
        ("rib.withdraw_ns_p99", S.quantile p.rib_withdraw 0.99);
        ("rib.fastpath_ratio",
         Probe.ratio rs.Rib.decision_fastpath rs.Rib.updates_processed);
        ("rib.candidates_per_decision",
         Probe.ratio st.candidates rs.Rib.decisions_run);
        ("fib.apply_ns_p50", S.quantile p.fib_apply 0.5);
        ("fib.apply_ns_p99", S.quantile p.fib_apply 0.99);
        ("fib.adds", float_of_int fib_stats.Fib.adds);
        ("fib.replaces", float_of_int fib_stats.Fib.replaces);
        ("fib.withdraws", float_of_int fib_stats.Fib.withdraws);
        ("fib.noop_ratio", Probe.ratio st.noops st.deltas);
        ("gc.alloc_b_per_update.load", per_update plain.load);
        ("gc.alloc_b_per_update.challenger", per_update plain.challenger);
        ("gc.alloc_b_per_update.failover", per_update plain.failover);
        ("gc.major_collections",
         float_of_int
           (plain.load.majors + plain.challenger.majors
          + plain.failover.majors));
        ("trace.overhead_pct", 100.0 *. ((total traced /. total plain) -. 1.0))
      ]
  in
  let share ns = 100.0 *. float_of_int ns *. 1e-9 /. total traced in
  let path = Probe.write_spans p.spans "full-table" in
  { Probe.attempted = 2 * n * (2 + size.challenger_passes);
    (* Instrumentation must be observational: a traced round that ends
       in another routing state fails every prefix. *)
    failed =
      plain.failed + traced.failed
      + (if plain_fp = traced_fp then 0 else n);
    metrics;
    fingerprint = traced_fp;
    notes =
      [ note_round size n plain;
        Printf.sprintf
          "traced time shares: decode %.1f%%, rib self %.1f%%, fib %.1f%%, \
           encode %.1f%%; spans in %s"
          (share (S.sum p.decode))
          (share (S.sum p.rib_announce + S.sum p.rib_withdraw))
          (share (S.sum p.fib_apply)) (share p.encode_ns) path ] }

let run ~seed ~seconds ~trace size =
  if trace then run_traced ~seed size else run_untraced ~seed ~seconds size
