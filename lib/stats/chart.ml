type series = { label : string; points : (float * float) list }

let glyphs = [| '*'; '+'; 'x'; 'o'; '#'; '@'; '%' |]

let width = 72
let height = 20

let render ?(log_y = false) ~x_label ~y_label series =
  let all_points = List.concat_map (fun s -> s.points) series in
  match all_points with
  | [] -> Printf.sprintf "(no data for %s vs %s)\n" y_label x_label
  | _ ->
    let tx y = if log_y then (if y > 0.0 then log10 y else nan) else y in
    let xs = List.map fst all_points in
    let ys = List.filter_map (fun (_, y) ->
        let v = tx y in
        if Float.is_nan v then None else Some v)
        all_points
    in
    let xmin = List.fold_left Float.min infinity xs in
    let xmax = List.fold_left Float.max neg_infinity xs in
    let ymin = List.fold_left Float.min infinity ys in
    let ymax = List.fold_left Float.max neg_infinity ys in
    let xspan = if xmax -. xmin <= 0.0 then 1.0 else xmax -. xmin in
    let yspan = if ymax -. ymin <= 0.0 then 1.0 else ymax -. ymin in
    let grid = Array.make_matrix height width ' ' in
    List.iteri
      (fun si s ->
        let glyph = glyphs.(si mod Array.length glyphs) in
        List.iter
          (fun (x, y) ->
            let yv = tx y in
            if not (Float.is_nan yv) then begin
              let col =
                int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1))
              in
              let row =
                height - 1
                - int_of_float ((yv -. ymin) /. yspan *. float_of_int (height - 1))
              in
              if row >= 0 && row < height && col >= 0 && col < width then
                grid.(row).(col) <- glyph
            end)
          s.points)
      series;
    let buf = Buffer.create 4096 in
    let fmt_y v = if log_y then Printf.sprintf "%9.3g" (Float.pow 10.0 v) else Printf.sprintf "%9.3g" v in
    Array.iteri
      (fun row line ->
        let frac = float_of_int (height - 1 - row) /. float_of_int (height - 1) in
        let yv = ymin +. (frac *. yspan) in
        let label =
          if row = 0 || row = height - 1 || row = height / 2 then fmt_y yv
          else String.make 9 ' '
        in
        Buffer.add_string buf label;
        Buffer.add_string buf " |";
        Buffer.add_string buf (String.init width (fun c -> line.(c)));
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf (String.make 10 ' ');
    Buffer.add_char buf '+';
    Buffer.add_string buf (String.make width '-');
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf "%10s %-8.6g%*s%8.6g\n" "" xmin (width - 14) "" xmax);
    Buffer.add_string buf
      (Printf.sprintf "%10s x: %s   y: %s%s\n" "" x_label y_label
         (if log_y then " (log scale)" else ""));
    List.iteri
      (fun si s ->
        Buffer.add_string buf
          (Printf.sprintf "%10s %c = %s\n" "" glyphs.(si mod Array.length glyphs)
             s.label))
      series;
    Buffer.contents buf

let to_tsv series =
  let xs =
    List.sort_uniq compare (List.concat_map (fun s -> List.map fst s.points) series)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "x";
  List.iter (fun s -> Buffer.add_string buf ("\t" ^ s.label)) series;
  Buffer.add_char buf '\n';
  List.iter
    (fun x ->
      Buffer.add_string buf (Printf.sprintf "%g" x);
      List.iter
        (fun s ->
          match List.assoc_opt x s.points with
          | Some y -> Buffer.add_string buf (Printf.sprintf "\t%g" y)
          | None -> Buffer.add_char buf '\t')
        series;
      Buffer.add_char buf '\n')
    xs;
  Buffer.contents buf
