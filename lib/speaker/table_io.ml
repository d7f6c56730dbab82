module A = Bgp_route.Attrs
module As_path = Bgp_route.As_path
module Asn = Bgp_route.Asn

type entry = {
  e_prefix : Bgp_addr.Prefix.t;
  e_path : As_path.t;
  e_origin : A.origin;
  e_med : int option;
  e_local_pref : int option;
  e_communities : Bgp_route.Community.t list;
}

let to_attrs ~next_hop e =
  A.make ~origin:e.e_origin ?med:e.e_med ?local_pref:e.e_local_pref
    ~communities:e.e_communities ~as_path:e.e_path ~next_hop ()

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let path_to_string p =
  let seg_to_string = function
    | As_path.Seq asns ->
      String.concat "," (List.map (fun a -> string_of_int (Asn.to_int a)) asns)
    | As_path.Set asns ->
      "{"
      ^ String.concat "," (List.map (fun a -> string_of_int (Asn.to_int a)) asns)
      ^ "}"
  in
  match As_path.segments p with
  | [] -> "empty"
  | segs -> String.concat "," (List.map seg_to_string segs)

let origin_to_string = function
  | A.Igp -> "igp"
  | A.Egp -> "egp"
  | A.Incomplete -> "incomplete"

let entry_to_line e =
  let b = Buffer.create 64 in
  Buffer.add_string b (Bgp_addr.Prefix.to_string e.e_prefix);
  Buffer.add_string b (" path=" ^ path_to_string e.e_path);
  if e.e_origin <> A.Igp then
    Buffer.add_string b (" origin=" ^ origin_to_string e.e_origin);
  Option.iter (fun m -> Buffer.add_string b (Printf.sprintf " med=%d" m)) e.e_med;
  Option.iter
    (fun l -> Buffer.add_string b (Printf.sprintf " lp=%d" l))
    e.e_local_pref;
  (match e.e_communities with
  | [] -> ()
  | cs ->
    Buffer.add_string b " comm=";
    Buffer.add_string b
      (String.concat ","
         (List.map
            (fun c ->
              Printf.sprintf "%d:%d"
                (Asn.to_int (Bgp_route.Community.asn_part c))
                (Bgp_route.Community.value_part c))
            cs)));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let parse_asn s =
  match int_of_string_opt s with
  | Some n when n >= 1 && n <= 65535 -> Ok (Asn.of_int n)
  | _ -> Error (Printf.sprintf "bad ASN %S" s)

(* "7018,701,{3356,2914},174" — sets are single {..} groups between
   commas. *)
let parse_path s =
  if s = "empty" then Ok As_path.empty
  else begin
    (* split on commas that are not inside braces *)
    let parts = ref [] in
    let buf = Buffer.create 16 in
    let depth = ref 0 in
    String.iter
      (fun c ->
        match c with
        | '{' ->
          incr depth;
          Buffer.add_char buf c
        | '}' ->
          decr depth;
          Buffer.add_char buf c
        | ',' when !depth = 0 ->
          parts := Buffer.contents buf :: !parts;
          Buffer.clear buf
        | c -> Buffer.add_char buf c)
      s;
    parts := Buffer.contents buf :: !parts;
    let parts = List.rev !parts in
    if !depth <> 0 then Error "unbalanced braces in path"
    else begin
      (* fold consecutive plain ASNs into sequences *)
      let rec go acc current_seq = function
        | [] ->
          let acc =
            if current_seq = [] then acc
            else As_path.Seq (List.rev current_seq) :: acc
          in
          Ok (List.rev acc)
        | part :: rest ->
          if String.length part >= 2 && part.[0] = '{' then begin
            if part.[String.length part - 1] <> '}' then
              Error "malformed AS_SET"
            else begin
              let inner = String.sub part 1 (String.length part - 2) in
              let* asns =
                List.fold_left
                  (fun acc s ->
                    let* acc = acc in
                    let* a = parse_asn s in
                    Ok (a :: acc))
                  (Ok [])
                  (String.split_on_char ',' inner)
              in
              let acc =
                if current_seq = [] then acc
                else As_path.Seq (List.rev current_seq) :: acc
              in
              go (As_path.Set (List.rev asns) :: acc) [] rest
            end
          end
          else
            let* a = parse_asn part in
            go acc (a :: current_seq) rest
      in
      let* segs = go [] [] parts in
      match As_path.of_segments segs with
      | p -> Ok p
      | exception Invalid_argument m -> Error m
    end
  end

let parse_community s =
  match String.split_on_char ':' s with
  | [ a; v ] -> (
    let* asn = parse_asn a in
    match int_of_string_opt v with
    | Some v when v >= 0 && v <= 0xFFFF -> Ok (Bgp_route.Community.make asn v)
    | _ -> Error (Printf.sprintf "bad community value %S" s))
  | _ -> Error (Printf.sprintf "bad community %S" s)

let entry_of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [] | [ "" ] -> Error "empty line"
  | prefix_str :: fields ->
    let* prefix =
      Result.map_error
        (fun e -> Printf.sprintf "prefix: %s" e)
        (Bgp_addr.Prefix.of_string prefix_str)
    in
    let entry =
      ref
        { e_prefix = prefix; e_path = As_path.empty; e_origin = A.Igp;
          e_med = None; e_local_pref = None; e_communities = [] }
    in
    let seen = ref [] in
    let* () =
      List.fold_left
        (fun acc field ->
          let* () = acc in
          if field = "" then Ok ()
          else
            match String.index_opt field '=' with
            | None -> Error (Printf.sprintf "malformed field %S" field)
            | Some i -> (
              let key = String.sub field 0 i in
              let value = String.sub field (i + 1) (String.length field - i - 1) in
              if List.mem key !seen then
                Error (Printf.sprintf "duplicate field %S" key)
              else begin
              seen := key :: !seen;
              match key with
              | "path" ->
                let* p = parse_path value in
                Ok (entry := { !entry with e_path = p })
              | "origin" -> (
                match value with
                | "igp" -> Ok (entry := { !entry with e_origin = A.Igp })
                | "egp" -> Ok (entry := { !entry with e_origin = A.Egp })
                | "incomplete" ->
                  Ok (entry := { !entry with e_origin = A.Incomplete })
                | _ -> Error (Printf.sprintf "bad origin %S" value))
              | "med" -> (
                match int_of_string_opt value with
                | Some m -> Ok (entry := { !entry with e_med = Some m })
                | None -> Error (Printf.sprintf "bad med %S" value))
              | "lp" -> (
                match int_of_string_opt value with
                | Some l -> Ok (entry := { !entry with e_local_pref = Some l })
                | None -> Error (Printf.sprintf "bad lp %S" value))
              | "comm" ->
                let* cs =
                  List.fold_left
                    (fun acc s ->
                      let* acc = acc in
                      let* c = parse_community s in
                      Ok (c :: acc))
                    (Ok [])
                    (String.split_on_char ',' value)
                in
                Ok (entry := { !entry with e_communities = List.rev cs })
              | k -> Error (Printf.sprintf "unknown field %S" k)
              end))
        (Ok ()) fields
    in
    if not (List.mem "path" !seen) then Error "missing path= field"
    else Ok !entry

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let header = "# bgpmark-table v1"

let save filename entries =
  let oc = open_out filename in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (header ^ "\n");
      List.iter
        (fun e ->
          output_string oc (entry_to_line e);
          output_char oc '\n')
        entries)

let load filename =
  let ic = open_in filename in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | line ->
          let trimmed = String.trim line in
          if trimmed = "" || String.length trimmed > 0 && trimmed.[0] = '#' then
            go (lineno + 1) acc
          else (
            match entry_of_line trimmed with
            | Ok e -> go (lineno + 1) (e :: acc)
            | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
      in
      go 1 [])

(* ------------------------------------------------------------------ *)
(* Synthesis                                                           *)
(* ------------------------------------------------------------------ *)

let synthesize ?(seed = 42) ~n ~speaker_asn () =
  let prefixes = Bgp_addr.Prefix_gen.table ~seed ~n () in
  Array.to_list
    (Array.mapi
       (fun i p ->
         let h = Bgp_addr.Prefix_gen.mix64 ((seed * 7919) + i) land 0x3FFF_FFFF in
         (* 2..6 hops, mode at 3-4 like observed Internet paths *)
         let len = 2 + (h mod 5) in
         { e_prefix = p;
           e_path = Workload.path ~origin_asn:speaker_asn ~len;
           e_origin = (if h land 0x10000 = 0 then Bgp_route.Attrs.Igp
                       else Bgp_route.Attrs.Incomplete);
           e_med = (if h land 0x20000 = 0 then None else Some (h land 0xFF));
           e_local_pref = None; e_communities = [] })
       prefixes)

(* ------------------------------------------------------------------ *)
(* MRT bridging and format auto-detection                              *)
(* ------------------------------------------------------------------ *)

let entries_of_mrt records =
  List.map
    (fun (prefix, h) ->
      let a = A.Interned.value h in
      { e_prefix = prefix; e_path = a.A.as_path; e_origin = a.A.origin;
        e_med = a.A.med; e_local_pref = a.A.local_pref;
        e_communities = a.A.communities })
    (Bgp_mrt.Mrt.routes_of_dump records)

(* The first 64 bytes, or "" when the file cannot be read. *)
let head filename =
  try
    In_channel.with_open_bin filename (fun ic ->
        let n = min 64 (Int64.to_int (In_channel.length ic)) in
        Option.value ~default:"" (In_channel.really_input_string ic n))
  with Sys_error _ -> ""

let load_auto filename =
  let head = head filename in
  if String.starts_with ~prefix:header head then load filename
  else if Bgp_mrt.Mrt.is_dump head then (
    match Bgp_mrt.Mrt.read_file filename with
    | Error e -> Error (Printf.sprintf "%s: %s" filename e)
    | Ok (records, _skipped) -> (
      match entries_of_mrt records with
      | [] ->
        Error
          (Printf.sprintf "%s: MRT dump has no IPv4-unicast RIB entries"
             filename)
      | entries -> Ok entries))
  else
    Error
      (Printf.sprintf
         "%s: unrecognized table format — expected MRT dump (RFC 6396 \
          binary) or bgpmark table (%S text)"
         filename header)
