(* bgpd: a real BGP daemon for loopback experiments — the benchmarked
   router (Bgp_router.Router) on the unpaced architecture, so it runs at
   host speed, with its sessions on loopback TCP (Bgp_tcp.Tcp_link).

   Example (three terminals):
     bgpd --asn 65101 --router-id 10.0.0.1 --listen 1790 \
          --announce 198.51.100.0/24
     bgpd --asn 65102 --router-id 10.0.0.2 --connect 1790 --listen 1791 \
          --aggregate 198.51.0.0/16,as-set,summary-only
     bgpd --asn 65103 --router-id 10.0.0.3 --connect 1791

   Every few seconds each daemon prints its neighbors' session states
   and its Loc-RIB. *)

open Cmdliner
module Router = Bgp_router.Router
module Tcp_link = Bgp_tcp.Tcp_link
module Loop = Bgp_tcp.Event_loop
module Clock = Bgp_engine.Clock

let asn_t =
  let doc = "Local autonomous system number." in
  Arg.(required & opt (some int) None & info [ "asn" ] ~docv:"ASN" ~doc)

let router_id_t =
  let doc = "BGP identifier (dotted quad)." in
  Arg.(required & opt (some string) None & info [ "router-id" ] ~docv:"IP" ~doc)

let listen_t =
  let doc = "Listen for one neighbor on 127.0.0.1:$(docv) (repeatable)." in
  Arg.(value & opt_all int [] & info [ "listen" ] ~docv:"PORT" ~doc)

let connect_t =
  let doc = "Actively peer with 127.0.0.1:$(docv) (repeatable)." in
  Arg.(value & opt_all int [] & info [ "connect" ] ~docv:"PORT" ~doc)

let listen_client_t =
  let doc =
    "Like --listen, but treat the neighbor as a route-reflection client \
     (RFC 4456; for IBGP neighbors)."
  in
  Arg.(value & opt_all int [] & info [ "listen-client" ] ~docv:"PORT" ~doc)

let connect_client_t =
  let doc = "Like --connect, but treat the neighbor as a reflection client." in
  Arg.(value & opt_all int [] & info [ "connect-client" ] ~docv:"PORT" ~doc)

let announce_t =
  let doc = "Originate $(docv) locally (repeatable)." in
  Arg.(value & opt_all string [] & info [ "announce" ] ~docv:"PREFIX" ~doc)

let announce_file_t =
  let doc =
    "Originate every route from a table file: bgpmark text (see \
     Bgp_speaker.Table_io for the format) or an MRT TABLE_DUMP_V2 dump, \
     auto-detected."
  in
  Arg.(value & opt (some string) None & info [ "announce-file" ] ~docv:"FILE" ~doc)

let aggregate_t =
  let doc =
    "Configure an aggregate: PREFIX[,as-set][,summary-only] (repeatable)."
  in
  Arg.(value & opt_all string [] & info [ "aggregate" ] ~docv:"SPEC" ~doc)

let interval_t =
  let doc = "Seconds between status dumps (0 disables)." in
  Arg.(value & opt float 5.0 & info [ "status-interval" ] ~docv:"SECONDS" ~doc)

let parse_aggregate spec =
  match String.split_on_char ',' spec with
  | prefix :: flags ->
    let agg_prefix = Bgp_addr.Prefix.of_string_exn prefix in
    List.iter
      (fun f ->
        if f <> "as-set" && f <> "summary-only" then
          invalid_arg (Printf.sprintf "unknown aggregate flag %S" f))
      flags;
    { Bgp_rib.Rib_manager.agg_prefix;
      agg_as_set = List.mem "as-set" flags;
      agg_summary_only = List.mem "summary-only" flags }
  | [] -> invalid_arg "empty aggregate spec"

(* One status tick: every neighbor's session state, then the Loc-RIB. *)
let dump_status router neighbors =
  let states =
    List.map (fun (label, peer) -> (label, Router.session_state router peer))
      neighbors
  in
  let routes =
    Bgp_rib.Loc_rib.to_list (Bgp_rib.Rib_manager.loc_rib (Router.rib router))
  in
  Format.printf "--- loc-rib (%d routes, %d peers up) ---@."
    (List.length routes)
    (List.length
       (List.filter (fun (_, st) -> st = Bgp_fsm.Fsm.Established) states));
  List.iter
    (fun (label, st) ->
      Format.printf "  neighbor %s: %s@." label (Bgp_fsm.Fsm.state_name st))
    states;
  List.iter (fun r -> Format.printf "  %a@." Bgp_route.Route.pp r) routes

let run asn router_id listens connects client_listens client_connects announces
    announce_file aggregates interval =
  let loop = Loop.create () in
  let clock = Loop.clock loop in
  let local_asn = Bgp_route.Asn.of_int asn in
  let router =
    Router.create
      ~aggregates:(List.map parse_aggregate aggregates)
      clock Bgp_router.Arch.unpaced ~local_asn
      ~router_id:(Bgp_addr.Ipv4.of_string_exn router_id)
  in
  (* Neighbors are known by port alone: the router takes each one's AS
     and BGP identifier from its OPEN. *)
  let neighbors = ref [] in
  let attach ~active ~rr_client port =
    let ep = (if active then Tcp_link.connect else Tcp_link.listen) loop ~port in
    let peer =
      Bgp_route.Peer.make ~id:(List.length !neighbors) ~asn:local_asn
        ~router_id:Bgp_addr.Ipv4.zero
        ~addr:(Bgp_addr.Ipv4.of_string_exn "127.0.0.1")
    in
    Router.attach_peer ~active ~rr_client router ~peer ~link:ep.Tcp_link.link;
    let label = Printf.sprintf "%s:%d" (if active then "connect" else "listen") port in
    neighbors := !neighbors @ [ (label, peer) ]
  in
  List.iter (attach ~active:false ~rr_client:false) listens;
  List.iter (attach ~active:true ~rr_client:false) connects;
  List.iter (attach ~active:false ~rr_client:true) client_listens;
  List.iter (attach ~active:true ~rr_client:true) client_connects;
  List.iter
    (fun p -> Router.originate router ~prefix:(Bgp_addr.Prefix.of_string_exn p))
    announces;
  Option.iter
    (fun file ->
      match Bgp_speaker.Table_io.load_auto file with
      | Error msg ->
        (* [load_auto] errors already lead with the file name. *)
        prerr_endline ("bgpd: cannot load table: " ^ msg);
        exit 1
      | Ok entries ->
        let next_hop = Bgp_addr.Ipv4.of_string_exn router_id in
        List.iter
          (fun e ->
            Router.originate router ~prefix:e.Bgp_speaker.Table_io.e_prefix
              ~attrs:(Bgp_speaker.Table_io.to_attrs ~next_hop e))
          entries;
        Printf.printf "[bgpd] originated %d routes from %s\n%!"
          (List.length entries) file)
    announce_file;
  if interval > 0.0 then begin
    let rec status () =
      dump_status router !neighbors;
      ignore (Clock.schedule clock ~delay:interval status)
    in
    ignore (Clock.schedule clock ~delay:interval status)
  end;
  Printf.printf "[bgpd] AS%d %s up (listen: %s; connect: %s)\n%!" asn router_id
    (String.concat "," (List.map string_of_int listens))
    (String.concat "," (List.map string_of_int connects));
  (* Run forever (ctrl-C to quit). *)
  ignore (Clock.run clock ~cond:(fun () -> false) ~step:infinity)

let cmd =
  let doc = "a tiny real BGP daemon: the bgpmark router on loopback TCP" in
  Cmd.v
    (Cmd.info "bgpd" ~version:"1.0.0" ~doc)
    Term.(
      const run $ asn_t $ router_id_t $ listen_t $ connect_t $ listen_client_t
      $ connect_client_t $ announce_t $ announce_file_t $ aggregate_t
      $ interval_t)

let () = exit (Cmd.eval cmd)
