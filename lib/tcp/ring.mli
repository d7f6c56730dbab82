(** Growable circular byte queue backing the non-blocking transports.

    Pending output lives in one [Bytes.t]; a partial socket write
    advances the head index instead of re-copying the remainder (the
    [String.sub]-per-write requeue this replaces was O(n²) under
    backpressure).  Many queued messages coalesce into one contiguous
    head segment, so a single [Unix.write] drains them all in one
    syscall — the stdlib-only stand-in for [writev] batching
    ([Unix] exposes neither [writev] nor Bigarray IO). *)

type t

val create : unit -> t
(** Empty ring with 4096 bytes of capacity; grows by doubling as
    needed, never shrinks. *)

val length : t -> int
val is_empty : t -> bool

val push_string : t -> string -> unit
(** Append a whole string (amortized O(length)). *)

val contiguous : t -> Bytes.t * int * int
(** [(buf, off, len)] of the head segment: the longest prefix of the
    queued bytes that is contiguous in the backing buffer ([len = 0]
    iff empty; [len < length t] only when the data wraps).  Valid until
    the next mutating call. *)

val consume : t -> int -> unit
(** Drop [n] bytes from the head — O(1), no copying.
    @raise Invalid_argument if [n] exceeds {!length}. *)

val clear : t -> unit
