module Arch = Bgp_router.Arch
module Router = Bgp_router.Router
module Speaker = Bgp_speaker.Speaker

type point = { n_peers : int; tps : float; avg_candidates : float }

type t = { arch_name : string; points : point list }

let run_one arch ~table_size ~seed ~n =
  if n < 2 then invalid_arg "Peers_sweep: need at least 2 peers";
  Testbed.with_rig Testbed.Sim ~timeout:500_000.0 ~speakers:n arch @@ fun tb ->
  let sides = Array.to_list tb.Testbed.sides in
  let table = Bgp_addr.Prefix_gen.table ~seed ~n:table_size () in
  let announce side ~path_len =
    ignore
      (Speaker.announce side.Testbed.speaker ~packing:500
         ~attrs:(Testbed.attrs side ~path_len) table)
  in
  (* Bring every session up, then inject the table from every speaker:
     speaker i uses path length (3 + i), so speaker 0 wins initially. *)
  Testbed.establish tb sides;
  ignore
    (Testbed.phase tb ~what:"multi-peer table load"
       ~until:(Testbed.router_done tb (table_size * n))
       (fun () -> List.iteri (fun i s -> announce s ~path_len:(3 + i)) sides));
  (* Measured phase: the last speaker takes over every prefix with a
     path that beats all others — an n-way decision + FIB replace per
     prefix. *)
  let p =
    Testbed.phase tb ~what:"measured phase" ~until:(Testbed.router_done tb table_size)
      (fun () -> announce tb.sides.(n - 1) ~path_len:1)
  in
  (* Every measured-phase decision sees one candidate per peer; sanity:
     it ran exactly one decision per prefix. *)
  let rib = Bgp_rib.Rib_manager.stats (Router.rib tb.router) in
  assert (rib.Bgp_rib.Rib_manager.decisions_run = table_size);
  { n_peers = n; tps = Testbed.tps p; avg_candidates = float_of_int n }

let run ?(table_size = 2000) ?(seed = 42) ?(counts = [ 2; 4; 8; 16 ]) arch =
  { arch_name = arch.Arch.name;
    points = List.map (fun n -> run_one arch ~table_size ~seed ~n) counts }

let render t =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "Peering-density scaling on %s (incremental best-path takeover):\n"
       t.arch_name);
  Buffer.add_string b "  peers   transactions/s   candidates/decision\n";
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "  %5d   %14.1f   %19.1f\n" p.n_peers p.tps
           p.avg_candidates))
    t.points;
  Buffer.contents b

let to_json t =
  let module J = Bgp_stats.Json in
  J.Obj
    [ ("name", J.Str "peers-sweep");
      ("arch", J.Str t.arch_name);
      ( "points",
        J.List
          (List.map
             (fun p ->
               J.Obj
                 [ ("n_peers", J.Int p.n_peers);
                   ("tps", J.Float p.tps);
                   ("avg_candidates", J.Float p.avg_candidates) ])
             t.points) ) ]
