module R = Bgp_route.Route
module A = Bgp_route.Attrs
module T = Prefix_table

type t = T.t

let find_entry t e =
  let r = T.best t e in
  if r == T.no_route then None else Some r

let find t p = find_entry t (T.find t p)

let size (t : t) = t.T.routes

let fold f t acc =
  T.fold
    (fun e acc ->
      let r = T.best t e in
      if r == T.no_route then acc else f r acc)
    t acc

let iter f t = fold (fun r () -> f r) t ()

let to_list t = T.filter_map_ordered t (find_entry t)

let add_opt buf = function
  | Some n -> Bgp_addr.Decimal.add_int buf n
  | None -> Buffer.add_char buf '-'

(* [prefix|as_path|next_hop|origin|med|local_pref\n].  These bytes
   are pinned by the goldens' digests and the sim-vs-live crosscheck;
   test_rib checks them against a [Format] rendering. *)
let add_line buf r =
  let a = R.attrs r in
  Bgp_addr.Prefix.add_to_buffer buf (R.prefix r);
  Buffer.add_char buf '|';
  Bgp_route.As_path.add_to_buffer buf a.A.as_path;
  Buffer.add_char buf '|';
  Bgp_addr.Ipv4.add_to_buffer buf a.A.next_hop;
  Buffer.add_char buf '|';
  Buffer.add_string buf (A.origin_name a.A.origin);
  Buffer.add_char buf '|';
  add_opt buf a.A.med;
  Buffer.add_char buf '|';
  add_opt buf a.A.local_pref;
  Buffer.add_char buf '\n'

let fingerprint t =
  (* ~64 bytes a line at table scale: one buffer, rarely regrown. *)
  let buf = Buffer.create (64 * (size t + 1)) in
  Array.iter
    (fun e ->
      let r = T.best t e in
      if r != T.no_route then add_line buf r)
    (T.ordered t);
  Digest.to_hex (Digest.string (Buffer.contents buf))
