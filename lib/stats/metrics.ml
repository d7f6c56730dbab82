(* Counters are plain ints.  Each simulated router's registry is
   written only by the domain draining its partition, and a partitioned
   run reads counters from the coordinating domain only between
   {!Bgp_sim.Pengine} windows, after the window barrier, which orders
   every write of the window before the read (histograms and the
   router's other fields are read the same way). *)
type counter = { c_name : string; mutable c_value : int }

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

(* A gauge samples external state (e.g. the global attribute arena)
   through a closure; it holds no state of its own, so [reset_all]
   leaves it alone. *)
type gauge = { g_name : string; g_sample : unit -> int }

(* Registration order is meaningful for reports, so entries are kept in
   an ordered list alongside the name index. *)
type entry = Counter of counter | Histogram of histogram | Gauge of gauge

type t = {
  index : (string, entry) Hashtbl.t;
  mutable entries : entry list;  (* reverse registration order *)
}

let create () = { index = Hashtbl.create 32; entries = [] }

let entry_name = function
  | Counter c -> c.c_name
  | Histogram h -> h.h_name
  | Gauge g -> g.g_name

let register t e =
  let name = entry_name e in
  if Hashtbl.mem t.index name then
    invalid_arg (Printf.sprintf "Metrics: %S already registered" name);
  Hashtbl.replace t.index name e;
  t.entries <- e :: t.entries

let counter t name =
  let c = { c_name = name; c_value = 0 } in
  register t (Counter c);
  c

let add c by =
  if by < 0 then
    invalid_arg (Printf.sprintf "Metrics.incr: negative step %d on %s" by c.c_name);
  c.c_value <- c.c_value + by

let incr ?(by = 1) c = add c by

let value c = c.c_value

let histogram t name =
  let h = { h_name = name; h_count = 0; h_sum = 0.0; h_min = 0.0; h_max = 0.0 } in
  register t (Histogram h);
  h

let observe h x =
  if h.h_count = 0 then begin
    h.h_min <- x;
    h.h_max <- x
  end
  else begin
    if x < h.h_min then h.h_min <- x;
    if x > h.h_max then h.h_max <- x
  end;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. x

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let hist_mean h = if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count

let gauge t name sample =
  let g = { g_name = name; g_sample = sample } in
  register t (Gauge g);
  g

(* Readers by name, for the module that registered the name; a name
   nothing registered (or registered as another kind) reads as zero. *)
let counter_value t name =
  match Hashtbl.find_opt t.index name with
  | Some (Counter c) -> value c
  | Some (Histogram _ | Gauge _) | None -> 0

let histogram_summary t name =
  match Hashtbl.find_opt t.index name with
  | Some (Histogram h) -> (h.h_count, hist_mean h, h.h_max)
  | Some (Counter _ | Gauge _) | None -> (0, 0.0, 0.0)

let gauge_value t name =
  match Hashtbl.find_opt t.index name with
  | Some (Gauge g) -> g.g_sample ()
  | Some (Counter _ | Histogram _) | None -> 0

let reset_all t =
  List.iter
    (function
      | Counter c -> c.c_value <- 0
      | Histogram h ->
        h.h_count <- 0;
        h.h_sum <- 0.0;
        h.h_min <- 0.0;
        h.h_max <- 0.0
      | Gauge _ -> ())
    t.entries

(* A copy no later write reaches: counters and histograms keep their
   current values, and each gauge becomes the constant it samples now. *)
let freeze t =
  let copy = function
    | Counter c -> Counter { c with c_value = c.c_value }
    | Histogram h -> Histogram { h with h_count = h.h_count }
    | Gauge g ->
      let v = g.g_sample () in
      Gauge { g with g_sample = (fun () -> v) }
  in
  let entries = List.map copy t.entries in
  let index = Hashtbl.create (Hashtbl.length t.index) in
  List.iter (fun e -> Hashtbl.replace index (entry_name e) e) entries;
  { index; entries }

let in_order t = List.rev t.entries

let counters t =
  List.filter_map
    (function
      | Counter c -> Some (c.c_name, c.c_value)
      | Histogram _ | Gauge _ -> None)
    (in_order t)

let histograms t =
  List.filter_map
    (function
      | Histogram h -> Some (h.h_name, (h.h_count, h.h_sum))
      | Counter _ | Gauge _ -> None)
    (in_order t)

let gauges t =
  List.filter_map
    (function
      | Gauge g -> Some (g.g_name, g.g_sample ())
      | Counter _ | Histogram _ -> None)
    (in_order t)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (function
      | Counter c ->
        Format.fprintf ppf "%-40s %12d@," c.c_name c.c_value
      | Histogram h ->
        Format.fprintf ppf "%-40s count %8d  sum %14.0f  mean %12.1f@," h.h_name
          h.h_count h.h_sum (hist_mean h)
      | Gauge g ->
        Format.fprintf ppf "%-40s %12d (gauge)@," g.g_name (g.g_sample ()))
    (in_order t);
  Format.fprintf ppf "@]"

(* The Prometheus-style export: every metric in registration order,
   typed by kind.  This is what `bgpbench churn --metrics` dumps in
   place of the BNG playbook's Prometheus scrape targets. *)
let to_json t =
  Json.Obj
    (List.map
       (function
         | Counter c ->
           ( c.c_name,
             Json.Obj
               [ ("kind", Json.Str "counter");
                 ("value", Json.Int c.c_value) ] )
         | Histogram h ->
           ( h.h_name,
             Json.Obj
               [ ("kind", Json.Str "histogram");
                 ("count", Json.Int h.h_count);
                 ("sum", Json.Float h.h_sum);
                 ("mean", Json.Float (hist_mean h));
                 ("min", Json.Float h.h_min);
                 ("max", Json.Float h.h_max) ] )
         | Gauge g ->
           ( g.g_name,
             Json.Obj
               [ ("kind", Json.Str "gauge");
                 ("value", Json.Int (g.g_sample ())) ] ))
       (in_order t))
