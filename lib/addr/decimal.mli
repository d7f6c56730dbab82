(** Decimal rendering straight into a {!Buffer.t}, for the printers
    and digests that render one number per field: no [Printf], no
    [string_of_int], no intermediate string. *)

val add_int : Buffer.t -> int -> unit
(** Append [n] in decimal, exactly as [string_of_int n] spells it
    (a leading ['-'] for negatives, [min_int] included).  Allocates
    nothing beyond the buffer's own growth. *)
