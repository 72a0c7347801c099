type budget = (string * int) list

let unlimited = []

let of_list l =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (r, n) ->
      if n < 0 then invalid_arg "Resource.of_list: negative count";
      if Hashtbl.mem seen r then invalid_arg "Resource.of_list: duplicate";
      Hashtbl.add seen r ())
    l;
  l

let limit budget r = List.assoc_opt r budget
let classes budget = List.sort String.compare (List.map fst budget)
