module M = Set.Make (Prefix)

type t = M.t

let empty = M.empty
let is_empty = M.is_empty
let cardinal = M.cardinal
let add = M.add
let remove = M.remove
let mem = M.mem
let of_list ps = List.fold_left (fun s p -> M.add p s) M.empty ps
let to_list = M.elements

let covering p s =
  let rec go l acc =
    if l > Prefix.len p then List.rev acc
    else
      let q = Prefix.make (Prefix.addr p) l in
      go (l + 1) (if M.mem q s then q :: acc else acc)
  in
  go 0 []

let best_covering p s =
  let rec go l =
    if l < 0 then None
    else
      let q = Prefix.make (Prefix.addr p) l in
      if M.mem q s then Some q else go (l - 1)
  in
  go (Prefix.len p)

let covers_addr a s = best_covering (Prefix.make a 32) s <> None
let fold = M.fold
let iter = M.iter
let inter = M.inter
let equal = M.equal

let pp ppf s =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") Prefix.pp)
    (to_list s)
