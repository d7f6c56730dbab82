let version = 4
let header_len = 19
let max_len = 4096
let hold_time_min = 3

type capability =
  | Multiprotocol of int * int
  | Route_refresh
  | Unknown_capability of int * string

type opt_param = Capability of capability | Unknown_param of int * string

type open_msg = {
  opn_version : int;
  opn_asn : Bgp_route.Asn.t;
  opn_hold_time : int;
  opn_bgp_id : Bgp_addr.Ipv4.t;
  opn_params : opt_param list;
}

type update = {
  withdrawn : Bgp_addr.Prefix.t list;
  attrs : Bgp_route.Attrs.Interned.t option;
  nlri : Bgp_addr.Prefix.t list;
}

type header_sub = Connection_not_synchronized | Bad_message_length of int
                | Bad_message_type of int

type open_sub = Unsupported_version of int | Bad_peer_as | Bad_bgp_identifier
              | Unsupported_optional_parameter | Unacceptable_hold_time

type update_sub =
  | Malformed_attribute_list
  | Unrecognized_wellknown_attribute of int
  | Missing_wellknown_attribute of int
  | Attribute_flags_error of int
  | Attribute_length_error of int
  | Invalid_origin_attribute
  | Invalid_next_hop_attribute
  | Optional_attribute_error of int
  | Invalid_network_field
  | Malformed_as_path

type error =
  | Message_header_error of header_sub
  | Open_message_error of open_sub
  | Update_message_error of update_sub
  | Hold_timer_expired
  | Fsm_error
  | Cease

let error_code = function
  | Message_header_error s ->
    ( 1,
      match s with
      | Connection_not_synchronized -> 1
      | Bad_message_length _ -> 2
      | Bad_message_type _ -> 3 )
  | Open_message_error s ->
    ( 2,
      match s with
      | Unsupported_version _ -> 1
      | Bad_peer_as -> 2
      | Bad_bgp_identifier -> 3
      | Unsupported_optional_parameter -> 4
      | Unacceptable_hold_time -> 6 )
  | Update_message_error s ->
    ( 3,
      match s with
      | Malformed_attribute_list -> 1
      | Unrecognized_wellknown_attribute _ -> 2
      | Missing_wellknown_attribute _ -> 3
      | Attribute_flags_error _ -> 4
      | Attribute_length_error _ -> 5
      | Invalid_origin_attribute -> 6
      | Invalid_next_hop_attribute -> 8
      | Optional_attribute_error _ -> 9
      | Invalid_network_field -> 10
      | Malformed_as_path -> 11 )
  | Hold_timer_expired -> (4, 0)
  | Fsm_error -> (5, 0)
  | Cease -> (6, 0)

let pp_error ppf e =
  let code, sub = error_code e in
  let name =
    match e with
    | Message_header_error _ -> "message-header-error"
    | Open_message_error _ -> "open-message-error"
    | Update_message_error _ -> "update-message-error"
    | Hold_timer_expired -> "hold-timer-expired"
    | Fsm_error -> "fsm-error"
    | Cease -> "cease"
  in
  Format.fprintf ppf "%s(%d/%d)" name code sub

type t =
  | Open of open_msg
  | Update of update
  | Keepalive
  | Notification of error
  | Route_refresh of int * int

let open_msg ?(hold_time = 90) ?(params = []) ~asn ~bgp_id () =
  Open
    { opn_version = version; opn_asn = asn; opn_hold_time = hold_time;
      opn_bgp_id = bgp_id; opn_params = params }

let update_interned ?(withdrawn = []) ?attrs ?(nlri = []) () =
  if nlri <> [] && attrs = None then
    invalid_arg "Msg.update: NLRI without path attributes";
  Update { withdrawn; attrs; nlri }

let update ?withdrawn ?attrs ?nlri () =
  update_interned ?withdrawn
    ?attrs:(Option.map Bgp_route.Attrs.Interned.intern attrs)
    ?nlri ()

let announcement attrs nlri = update ~attrs ~nlri ()
let announcement_interned attrs nlri = update_interned ~attrs ~nlri ()
let withdrawal withdrawn = update_interned ~withdrawn ()
let route_refresh = Route_refresh (1, 1)

let kind_name = function
  | Open _ -> "OPEN"
  | Update _ -> "UPDATE"
  | Keepalive -> "KEEPALIVE"
  | Notification _ -> "NOTIFICATION"
  | Route_refresh _ -> "ROUTE-REFRESH"

let pp ppf = function
  | Open o ->
    Format.fprintf ppf "OPEN(v%d %a hold=%ds id=%a)" o.opn_version
      Bgp_route.Asn.pp o.opn_asn o.opn_hold_time Bgp_addr.Ipv4.pp o.opn_bgp_id
  | Update u ->
    Format.fprintf ppf "UPDATE(withdraw=%d announce=%d%t)"
      (List.length u.withdrawn) (List.length u.nlri) (fun ppf ->
        match u.attrs with
        | None -> ()
        | Some a -> Format.fprintf ppf " %a" Bgp_route.Attrs.Interned.pp a)
  | Keepalive -> Format.pp_print_string ppf "KEEPALIVE"
  | Notification e -> Format.fprintf ppf "NOTIFICATION(%a)" pp_error e
  | Route_refresh (afi, safi) ->
    Format.fprintf ppf "ROUTE-REFRESH(afi=%d safi=%d)" afi safi

let nlri_count = function Update u -> List.length u.nlri | _ -> 0
