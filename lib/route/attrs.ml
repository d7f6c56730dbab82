type origin = Igp | Egp | Incomplete

let origin_to_int = function Igp -> 0 | Egp -> 1 | Incomplete -> 2

let origin_of_int = function
  | 0 -> Some Igp
  | 1 -> Some Egp
  | 2 -> Some Incomplete
  | _ -> None

let origin_name = function
  | Igp -> "IGP"
  | Egp -> "EGP"
  | Incomplete -> "incomplete"

let pp_origin ppf o = Format.pp_print_string ppf (origin_name o)

type t = {
  origin : origin;
  as_path : As_path.t;
  next_hop : Bgp_addr.Ipv4.t;
  med : int option;
  local_pref : int option;
  atomic_aggregate : bool;
  aggregator : (Asn.t * Bgp_addr.Ipv4.t) option;
  communities : Community.t list;
  originator_id : Bgp_addr.Ipv4.t option;
  cluster_list : Bgp_addr.Ipv4.t list;
}

(* Canonical community form: sorted, duplicate-free.  COMMUNITIES is a
   set on the wire, so two attribute records that differ only in
   insertion order must be one arena entry; CLUSTER_LIST stays
   order-significant (it is a reflection path). *)
let canon_communities = function
  | [] -> []
  | [ _ ] as cs -> cs
  | cs -> List.sort_uniq Community.compare cs

let make ?(origin = Igp) ?med ?local_pref ?(atomic_aggregate = false) ?aggregator
    ?(communities = []) ?originator_id ?(cluster_list = []) ~as_path ~next_hop
    () =
  { origin; as_path; next_hop; med; local_pref; atomic_aggregate; aggregator;
    communities = canon_communities communities; originator_id; cluster_list }

let with_as_path as_path t = { t with as_path }
let with_local_pref local_pref t = { t with local_pref }
let with_med med t = { t with med }

let add_community c t =
  if List.exists (Community.equal c) t.communities then t
  else { t with communities = List.merge Community.compare [ c ] t.communities }

(* A direct walk: [List.exists (Community.equal c)] would allocate a
   closure on every export. *)
let rec mem_community c = function
  | [] -> false
  | x :: rest -> Community.equal c x || mem_community c rest

let has_community c t = mem_community c t.communities
let prepend_as a t = { t with as_path = As_path.prepend a t.as_path }

let equal a b =
  a.origin = b.origin
  && As_path.equal a.as_path b.as_path
  && Bgp_addr.Ipv4.equal a.next_hop b.next_hop
  && Option.equal Int.equal a.med b.med
  && Option.equal Int.equal a.local_pref b.local_pref
  && Bool.equal a.atomic_aggregate b.atomic_aggregate
  && Option.equal
       (fun (x, xa) (y, ya) -> Asn.equal x y && Bgp_addr.Ipv4.equal xa ya)
       a.aggregator b.aggregator
  && List.equal Community.equal
       (canon_communities a.communities)
       (canon_communities b.communities)
  && Option.equal Bgp_addr.Ipv4.equal a.originator_id b.originator_id
  && List.equal Bgp_addr.Ipv4.equal a.cluster_list b.cluster_list

let pp ppf t =
  Format.fprintf ppf "@[<h>origin=%a path=[%a] nh=%a" pp_origin t.origin
    As_path.pp t.as_path Bgp_addr.Ipv4.pp t.next_hop;
  Option.iter (Format.fprintf ppf " med=%d") t.med;
  Option.iter (Format.fprintf ppf " lp=%d") t.local_pref;
  if t.atomic_aggregate then Format.pp_print_string ppf " atomic";
  (match t.communities with
  | [] -> ()
  | cs ->
    Format.fprintf ppf " comm=%a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
         Community.pp)
      cs);
  Option.iter
    (fun o -> Format.fprintf ppf " originator=%a" Bgp_addr.Ipv4.pp o)
    t.originator_id;
  (match t.cluster_list with
  | [] -> ()
  | cl ->
    Format.fprintf ppf " clusters=%a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
         Bgp_addr.Ipv4.pp)
      cl);
  Format.fprintf ppf "@]"

(* Structural hash, consistent with [equal]: communities hash in sorted
   order (construction keeps them sorted, but record updates may not go
   through [make]) and [As_path.hash] already sorts Set segments. *)
let hash t =
  let mix h v = (h * 31) + v in
  let h = mix 17 (origin_to_int t.origin) in
  let h = mix h (As_path.hash t.as_path) in
  let h = mix h (Bgp_addr.Ipv4.hash t.next_hop) in
  let h = mix h (match t.med with None -> -1 | Some m -> m) in
  let h = mix h (match t.local_pref with None -> -1 | Some l -> l) in
  let h = mix h (Bool.to_int t.atomic_aggregate) in
  let h =
    match t.aggregator with
    | None -> mix h 0
    | Some (a, ip) -> mix (mix h (Asn.hash a)) (Bgp_addr.Ipv4.hash ip)
  in
  let h =
    List.fold_left
      (fun h c -> mix h (Community.to_int32_value c))
      (mix h 1)
      (canon_communities t.communities)
  in
  let h =
    match t.originator_id with
    | None -> mix h 0
    | Some ip -> mix h (Bgp_addr.Ipv4.hash ip)
  in
  let h =
    List.fold_left (fun h ip -> mix h (Bgp_addr.Ipv4.hash ip)) (mix h 2)
      t.cluster_list
  in
  h land max_int

(* ------------------------------------------------------------------ *)
(* Decision-preference tuple                                           *)
(* ------------------------------------------------------------------ *)

let default_local_pref = 100

type pref = {
  pr_local_pref : int;
  pr_path_len : int;
  pr_origin : int;
  pr_med : int;
  pr_first_hop : Asn.t option;
  pr_originator_id : int;
  pr_cluster_len : int;
}

let pref_of t =
  { pr_local_pref = Option.value ~default:default_local_pref t.local_pref;
    pr_path_len = As_path.length t.as_path;
    pr_origin = origin_to_int t.origin;
    pr_med = Option.value ~default:0 t.med;
    pr_first_hop = As_path.first_hop t.as_path;
    pr_originator_id =
      (match t.originator_id with
      | Some id -> Bgp_addr.Ipv4.to_int id
      | None -> -1);
    pr_cluster_len = List.length t.cluster_list }

(* Rough heap footprint of one attribute record, in bytes: what a
   duplicate would have cost.  Blocks are (1 + fields) words, cons
   cells 3 words, boxed options 2 words; ASNs/communities/addresses
   are immediates. *)
let approx_bytes t =
  let word = Sys.word_size / 8 in
  let opt = function None -> 0 | Some _ -> 2 in
  let list per l = List.fold_left (fun acc x -> acc + 3 + per x) 0 l in
  let seg_words = function
    | As_path.Seq asns | As_path.Set asns -> 2 + list (fun _ -> 0) asns
  in
  let words =
    11 (* the record *)
    + list seg_words (As_path.segments t.as_path)
    + opt t.med + opt t.local_pref
    + (match t.aggregator with None -> 0 | Some _ -> 2 + 3)
    + list (fun _ -> 0) t.communities
    + opt t.originator_id
    + list (fun _ -> 0) t.cluster_list
  in
  words * word

(* ------------------------------------------------------------------ *)
(* Hash-consing arena                                                  *)
(* ------------------------------------------------------------------ *)

module Interned = struct
  type attrs = t

  type t = {
    id : int;             (* unique per arena entry; allocation order *)
    cached_hash : int;    (* [hash value] *)
    value : attrs;
    pref : pref;
    vbytes : int;         (* [approx_bytes value] *)
    mutable wire : string;
        (* the 2-byte-AS attribute section of [value], "" until the
           codec first encodes it (see [wire_image]) *)
  }

  (* A span-cache bucket: entries under one bucket index, each with its
     full FNV key, its own copy of the bytes, and the handle they
     decoded to. *)
  type span =
    | No_span
    | Span of { key : int; bytes : string; handle : t; next : span }

  module Arena = Hashtbl.Make (struct
    type t = attrs

    let equal = equal
    let hash = hash
  end)

  type arena_stats = {
    interns : int;
    hits : int;
    live : int;
    saved_bytes : int;
  }

  (* The arena is sharded per domain: each OCaml domain interns into
     its own table, bound through domain-local storage, so partitioned
     runs ({!Bgp_sim.Pengine}) never contend on — or corrupt — a shared
     Hashtbl.  Ids are [slot * 2^40 + local allocation count], unique
     and deterministic: a partition's event order is deterministic, so
     its shard's allocation order is too.  Slot 0 is the calling
     domain's default shard, which keeps single-domain ids identical to
     the historical global arena.  Two shards may intern structurally
     equal attrs under different ids; {!equal}'s structural fallback
     makes such handles compare equal, so sharding is invisible to
     route semantics. *)

  type shard = {
    slot : int;
    table : t Arena.t;
    mutable spans : span array;  (* power-of-two bucket count *)
    mutable span_count : int;
    mutable next_local : int;
    mutable since : int;
        (* [next_local] at the last [clear]: exactly the handles
           allocated at or above it are arena entries now *)
    mutable s_interns : int;
    mutable s_hits : int;
    mutable s_saved : int;
  }

  let id_bits = 40  (* local ids per shard; the slot lives above *)
  let local_mask = (1 lsl id_bits) - 1
  let span_buckets = 4096  (* initial, and after a [clear] *)
  let shards_mu = Mutex.create ()
  let shards : (int, shard) Hashtbl.t = Hashtbl.create 8

  let shard_for slot =
    Mutex.lock shards_mu;
    let sh =
      match Hashtbl.find_opt shards slot with
      | Some sh -> sh
      | None ->
        let sh =
          { slot; table = Arena.create 4096;
            spans = Array.make span_buckets No_span; span_count = 0;
            next_local = 0; since = 0; s_interns = 0; s_hits = 0;
            s_saved = 0 }
        in
        Hashtbl.add shards slot sh;
        sh
    in
    Mutex.unlock shards_mu;
    sh

  let default_shard = shard_for 0
  let dls = Domain.DLS.new_key (fun () -> default_shard)
  let bind_shard slot = Domain.DLS.set dls (shard_for slot)
  let current () = Domain.DLS.get dls

  let fresh sh value =
    let id = (sh.slot lsl id_bits) lor sh.next_local in
    sh.next_local <- sh.next_local + 1;
    { id; cached_hash = hash value; value; pref = pref_of value;
      vbytes = approx_bytes value; wire = "" }

  (* The stats of an [intern] call that found [h]. *)
  let record_hit sh h =
    sh.s_interns <- sh.s_interns + 1;
    sh.s_hits <- sh.s_hits + 1;
    sh.s_saved <- sh.s_saved + h.vbytes

  let intern value =
    let sh = current () in
    match Arena.find_opt sh.table value with
    | Some h ->
      record_hit sh h;
      h
    | None ->
      sh.s_interns <- sh.s_interns + 1;
      let h = fresh sh value in
      Arena.add sh.table value h;
      h

  (* Id -1 lies below every shard's id range, so [hit] rejects it and
     the id fast path of [equal] never matches it. *)
  let none =
    let value = make ~as_path:As_path.empty ~next_hop:Bgp_addr.Ipv4.zero () in
    { id = -1; cached_hash = hash value; value; pref = pref_of value;
      vbytes = 0; wire = "" }

  (* Wire-span cache: raw attribute byte-span -> handle, so a decoder
     that has seen the exact bytes before interns without materializing
     the intermediate record at all.  Keyed by an FNV-1a hash of the
     span with the stored copy as the collision check; the stats
     counters on a hit mirror exactly what the [intern] call being
     skipped would have recorded, so arena accounting is unchanged by
     who found the handle.  Per shard, like the arena itself.  A probe
     allocates nothing: the buckets are a plain chained array, walked by
     top-level functions, and a miss returns [none]. *)
  let span_hash buf ~pos ~len =
    let h = ref 0x811c9dc5 in
    for i = pos to pos + len - 1 do
      h := (!h lxor Char.code (String.unsafe_get buf i)) * 0x01000193
    done;
    !h land max_int

  (* Fold the high bits in: FNV's low bits alone mix poorly. *)
  let bucket spans key = (key lxor (key lsr 29)) land (Array.length spans - 1)

  let rec same_bytes span buf pos i len =
    i = len
    || Char.code (String.unsafe_get span i)
       = Char.code (String.unsafe_get buf (pos + i))
       && same_bytes span buf pos (i + 1) len

  let rec find_in key buf pos len = function
    | No_span -> none
    | Span s ->
      if s.key = key
         && String.length s.bytes = len
         && same_bytes s.bytes buf pos 0 len
      then s.handle
      else find_in key buf pos len s.next

  let find_span buf ~pos ~len =
    let sh = current () in
    let key = span_hash buf ~pos ~len in
    let h = find_in key buf pos len sh.spans.(bucket sh.spans key) in
    if h != none then record_hit sh h;
    h

  let rec rehash spans = function
    | No_span -> ()
    | Span s ->
      let i = bucket spans s.key in
      spans.(i) <- Span { s with next = spans.(i) };
      rehash spans s.next

  let add_span buf ~pos ~len h =
    let sh = current () in
    let key = span_hash buf ~pos ~len in
    (* Only reached on a [find_span] miss, so the span is new under this
       key; the copy is the one allocation the cache ever pays for these
       bytes. *)
    let i = bucket sh.spans key in
    sh.spans.(i) <-
      Span { key; bytes = String.sub buf pos len; handle = h;
             next = sh.spans.(i) };
    sh.span_count <- sh.span_count + 1;
    if sh.span_count > 2 * Array.length sh.spans then begin
      let old = sh.spans in
      sh.spans <- Array.make (2 * Array.length old) No_span;
      Array.iter (rehash sh.spans) old
    end

  (* Racing fills from two domains store byte-identical strings (the
     image is a function of the immutable [value]), and a string is
     published with its contents, so a reader sees "" or a whole
     image. *)
  let wire_image h = h.wire
  let set_wire_image h w = h.wire <- w

  (* A handle allocated by this shard since its last clear was made by
     [intern], so it is the arena's entry for its value and
     [intern (value h)] would return it. *)
  let hit h =
    let sh = current () in
    h.id lsr id_bits = sh.slot
    && h.id land local_mask >= sh.since
    && begin
      record_hit sh h;
      true
    end

  let value h = h.value
  let id h = h.id
  let pref h = h.pref

  (* Id equality is complete only within one shard; the structural
     fallback makes handles interned by different shards compare
     equal. *)
  let equal a b =
    a.id = b.id || (a.cached_hash = b.cached_hash && equal a.value b.value)

  let hash h = h.cached_hash
  let compare_id a b = Int.compare a.id b.id
  let pp ppf h = pp ppf h.value

  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)

  (* Stats and [clear] aggregate over every shard ever bound, so
     multi-domain runs report the same totals a global arena would. *)
  let stats () =
    Mutex.lock shards_mu;
    let interns, hits, live, saved_bytes =
      Hashtbl.fold
        (fun _ sh (i, h, l, s) ->
          ( i + sh.s_interns, h + sh.s_hits, l + Arena.length sh.table,
            s + sh.s_saved ))
        shards (0, 0, 0, 0)
    in
    Mutex.unlock shards_mu;
    { interns; hits; live; saved_bytes }

  let hit_rate s =
    if s.interns = 0 then 0.0
    else float_of_int s.hits /. float_of_int s.interns

  let mark_stale sh = sh.since <- sh.next_local

  (* Ids survive a clear on purpose ([next_local] is not reset): stale
     handles must never collide with fresh ones on the id fast path. *)
  let clear () =
    Mutex.lock shards_mu;
    Hashtbl.iter
      (fun _ sh ->
        Arena.reset sh.table;
        sh.spans <- Array.make span_buckets No_span;
        sh.span_count <- 0;
        mark_stale sh;
        sh.s_interns <- 0;
        sh.s_hits <- 0;
        sh.s_saved <- 0)
      shards;
    Mutex.unlock shards_mu
end
