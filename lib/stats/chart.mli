(** Terminal charts for the figure reproductions.

    Plots multiple [(x, y)] series as an ASCII grid with axis labels
    and a legend — enough to eyeball the shapes of Figures 3-6 without
    leaving the terminal.  Also emits the underlying data as
    tab-separated rows for external plotting. *)

type series = { label : string; points : (float * float) list }

val render :
  ?log_y:bool -> x_label:string -> y_label:string -> series list -> string
(** 72x20 characters.  [log_y] plots log10 of positive values
    (the paper's Fig. 5 uses a log y-axis).  Series are drawn with the
    glyphs [* + x o # @ %] in order. *)

val to_tsv : series list -> string
(** Tab-separated: header [x label1 label2 ...], rows sorted by x, with
    empty cells for series lacking that x. *)
