type t = Prefix_table.t

let find t p =
  let r = Prefix_table.best t (Prefix_table.find t p) in
  if r == Prefix_table.no_route then None else Some r

let size (t : t) = t.Prefix_table.routes

let fold f t acc =
  Prefix_table.fold
    (fun e acc ->
      let r = Prefix_table.best t e in
      if r == Prefix_table.no_route then acc else f r acc)
    t acc

let iter f t = fold (fun r () -> f r) t ()

let to_list t =
  fold (fun r acc -> r :: acc) t []
  |> List.sort (fun a b ->
         Bgp_addr.Prefix.compare
           (Bgp_route.Route.prefix a)
           (Bgp_route.Route.prefix b))

let fingerprint t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      let a = Bgp_route.Route.attrs r in
      Buffer.add_string buf
        (Format.asprintf "%s|%a|%s|%a|%s|%s\n"
           (Bgp_addr.Prefix.to_string (Bgp_route.Route.prefix r))
           Bgp_route.As_path.pp a.Bgp_route.Attrs.as_path
           (Bgp_addr.Ipv4.to_string a.Bgp_route.Attrs.next_hop)
           Bgp_route.Attrs.pp_origin a.Bgp_route.Attrs.origin
           (match a.Bgp_route.Attrs.med with
           | Some m -> string_of_int m
           | None -> "-")
           (match a.Bgp_route.Attrs.local_pref with
           | Some lp -> string_of_int lp
           | None -> "-")))
    (to_list t);
  Digest.to_hex (Digest.string (Buffer.contents buf))
