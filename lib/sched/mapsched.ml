let schedule ~device ~delays ~resources ~ii g cover =
  if ii < 1 then invalid_arg "Mapsched.schedule: ii < 1";
  (* A root waits on its cone's inputs; interior nodes are not placed. *)
  let deps =
    Array.init (Ir.Cdfg.num_nodes g) (fun v ->
        match Cover.chosen cover v with
        | None -> [||]
        | Some cut ->
            let acc = ref [] in
            Cuts.iter_inputs g cut (fun _ e -> acc := e :: !acc);
            Array.of_list !acc)
  in
  let view =
    {
      Heuristic.order =
        List.filter (Cover.is_root cover) (Ir.Cdfg.topo_order g);
      deps;
      delay = Timing.node_delay ~device ~delays g cover;
      lat = Timing.node_latency ~device ~delays g cover;
    }
  in
  let cycle, start = Heuristic.modulo ~device ~resources ~ii g view in
  (* Interior nodes inherit their owner's slot (display only). *)
  Cover.iter_interior g cover (fun v o ->
      cycle.(v) <- cycle.(o);
      start.(v) <- start.(o));
  Heuristic.check ~resources ~ii g view cycle start
