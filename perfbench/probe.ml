(* Host-time instrumentation.  Everything here is called from the
   benchmark's own code around public library calls; nothing inside the
   libraries is timed.  Untraced runs read the clock only around whole
   phases; traced runs also record samples and spans. *)

module Tracer = Bgp_trace.Tracer

(* Monotonic nanoseconds ([clock_gettime], unboxed and allocation-free). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* A growable buffer of integer samples (durations in ns). *)
module Samples = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 4096 0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let grown = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 grown 0 t.len;
      t.data <- grown
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let count t = t.len

  let sum t =
    let s = ref 0 in
    for i = 0 to t.len - 1 do
      s := !s + t.data.(i)
    done;
    !s

  (* Nearest-rank quantile; 0 when empty. *)
  let quantile t q =
    if t.len = 0 then 0.0
    else begin
      let a = Array.sub t.data 0 t.len in
      Array.sort compare a;
      let rank = int_of_float (Float.ceil (q *. float_of_int t.len)) - 1 in
      float_of_int a.(max 0 (min (t.len - 1) rank))
    end
end

(* Spans go into a [Tracer] ring (oldest overwritten once full) so the
   run exports to the same Chrome/Perfetto format as the simulator's
   traces.  A span carries the id shared by every span of one input
   message and the name of its parent span. *)
type spans = { tracer : Tracer.t; track : Tracer.track; origin : int }

let spans ~process =
  let tracer = Tracer.create ~capacity:(1 lsl 17) () in
  { tracer; track = Tracer.track tracer ~process ~thread:"host" ();
    origin = now_ns () }

let span s ~name ~id ~parent ~start ~stop =
  Tracer.span s.tracer s.track ~name
    ~ts:(float_of_int (start - s.origin) *. 1e-9)
    ~dur:(float_of_int (stop - start) *. 1e-9)
    ~args:[ ("id", Tracer.Int id); ("parent", Tracer.Str parent) ]
    ()

(* Directory the traced runs write their Chrome traces into. *)
let trace_dir = ref (Filename.concat "perfbench" "out")

(* Write the spans as [<trace_dir>/<name>.trace.json]; returns the path. *)
let write_spans s name =
  if not (Sys.file_exists !trace_dir) then Sys.mkdir !trace_dir 0o755;
  let path = Filename.concat !trace_dir (name ^ ".trace.json") in
  Bgp_trace.Chrome.write_file s.tracer path;
  path

(* What one workload run hands back to [Perfbench]. *)
type report = {
  attempted : int;  (** operations the oracle checked *)
  failed : int;  (** operations the oracle rejected *)
  metrics : (string * float) list;
  fingerprint : string;
      (** digest of the routing state the run produced; a traced run
          must produce the same digest as an untraced one *)
  notes : string list;  (** human-readable lines printed before the JSON *)
}

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
