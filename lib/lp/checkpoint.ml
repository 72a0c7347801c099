(* Versioned on-disk snapshots of a live branch-and-bound frontier
   (DESIGN.md §3i). Everything numeric that must survive the round-trip
   exactly is serialized as a hex-float string ("%h"): unlike "%.12g",
   hex floats reparse to the identical bit pattern, and
   [float_of_string] also reads "nan" and "infinity", so bound chains,
   duals and pseudocosts rehydrate bit-for-bit. The writer goes through
   a temp file + atomic rename so a crash mid-write can never leave a
   half-written file under the real name; a torn file (injected via the
   [milp.checkpoint_torn] fault, which truncates in place) is caught by
   the payload checksum or the JSON parser. *)

module J = Obs.Json

let schema = "pipesyn-checkpoint-v1"

let hex f = Printf.sprintf "%h" f

type t = {
  fingerprint : string;
  domains : int;
  next_nid : int;
  nodes_done : int;
  pivots_done : int;
  lp_limited : int;
  fixed_vars : int;
  root_bound : float;
  root_lb : float array;
  root_ub : float array;
  incumbent : (float array * float) option;
  first_incumbent_s : float;
  elapsed_s : float;
  frontier : Node.t list;
  pc : Node.pc array;
  certs_on : bool;
  cert_nodes : Cert.node list;
  fixes : (int * Cert.side) list;
  root_duals : float array option;
  presolve : Cert.tighten list;
      (* root bound-tightening events, in application order *)
  cuts : Cert.cut list;
      (* applied cut rows, in derivation order: a resume re-extends the
         model with exactly these rows and never re-separates *)
  meta : J.t;
}

(* The fingerprint pins a checkpoint to the exact model it was taken
   from: every array the solver consumes, serialized exactly, digested.
   A resume against any other model is rejected up front — replaying a
   frontier into a different polytope would silently produce garbage. *)
let fingerprint (raw : Model.raw) =
  let buf = Buffer.create 4096 in
  let f x = Buffer.add_string buf (hex x); Buffer.add_char buf ';' in
  let i x = Buffer.add_string buf (string_of_int x); Buffer.add_char buf ';' in
  i raw.Model.n;
  Array.iter f raw.Model.lb;
  Array.iter f raw.Model.ub;
  Array.iter (fun b -> Buffer.add_char buf (if b then 'i' else 'c')) raw.Model.integer;
  Array.iter f raw.Model.obj;
  Array.iter
    (fun row ->
      Array.iter (fun (j, a) -> i j; f a) row;
      Buffer.add_char buf '|')
    raw.Model.rows;
  Array.iter
    (fun s ->
      Buffer.add_char buf
        (match s with Model.Le -> '<' | Model.Eq -> '=' | Model.Ge -> '>'))
    raw.Model.senses;
  Array.iter f raw.Model.rhs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---- encoding ------------------------------------------------------- *)

let jf x = J.String (hex x)
let jfarr a = J.List (Array.to_list (Array.map jf a))
let jiarr a = J.List (Array.to_list (Array.map (fun x -> J.Int x) a))

let side_to_json = function
  | Cert.Lower -> J.String "lower"
  | Cert.Upper -> J.String "upper"

let claim_to_json = function
  | Cert.Lp_optimal { obj; duals } ->
      J.Obj [ ("kind", J.String "optimal"); ("obj", jf obj); ("duals", jfarr duals) ]
  | Cert.Lp_infeasible None -> J.Obj [ ("kind", J.String "infeasible") ]
  | Cert.Lp_infeasible (Some (Cert.Ray r)) ->
      J.Obj [ ("kind", J.String "infeasible"); ("ray", jfarr r) ]
  | Cert.Lp_infeasible (Some (Cert.Empty_box j)) ->
      J.Obj [ ("kind", J.String "infeasible"); ("empty_box", J.Int j) ]
  | Cert.Lp_unsolved -> J.Obj [ ("kind", J.String "unsolved") ]

let fathom_to_json = function
  | Cert.F_branched { bvar; down_id; down_ub; up_id; up_lb } ->
      J.Obj
        [
          ("kind", J.String "branched");
          ("bvar", J.Int bvar);
          ("down_id", J.Int down_id);
          ("down_ub", jf down_ub);
          ("up_id", J.Int up_id);
          ("up_lb", jf up_lb);
        ]
  | Cert.F_integral -> J.Obj [ ("kind", J.String "integral") ]
  | Cert.F_bound -> J.Obj [ ("kind", J.String "bound") ]
  | Cert.F_dominated -> J.Obj [ ("kind", J.String "dominated") ]
  | Cert.F_infeasible -> J.Obj [ ("kind", J.String "infeasible") ]
  | Cert.F_budget -> J.Obj [ ("kind", J.String "budget") ]

let cert_node_to_json (n : Cert.node) =
  J.Obj
    [
      ("id", J.Int n.Cert.id);
      ("parent", J.Int n.Cert.parent);
      ( "branch",
        match n.Cert.branch with
        | None -> J.Null
        | Some (j, side, v) ->
            J.Obj [ ("j", J.Int j); ("side", side_to_json side); ("v", jf v) ] );
      ("depth", J.Int n.Cert.depth);
      ("domain", J.Int n.Cert.domain);
      ("claim", claim_to_json n.Cert.claim);
      ("bound", jf n.Cert.bound);
      ("incumbent_at", jf n.Cert.incumbent_at);
      ("fathom", fathom_to_json n.Cert.fathom);
    ]

(* A node's chain travels as its root → node edit list. *)
let node_to_json (n : Node.t) =
  let rec edits acc = function
    | Node.Root -> acc
    | Node.Tighten t ->
        edits
          (J.Obj
             [
               ("j", J.Int t.j);
               ("side", side_to_json t.side);
               ("v", jf t.v);
               ("prev", jf t.prev);
             ]
          :: acc)
          t.parent
  in
  J.Obj
    [
      ("nid", J.Int n.nid);
      ("parent", J.Int n.parent);
      ("bound", jf n.bound);
      ("bvar", J.Int n.bvar);
      ("bfrac", jf n.bfrac);
      ("dir_up", J.Bool n.dir_up);
      ("edits", J.List (edits [] n.bounds));
    ]

let tighten_to_json (t : Cert.tighten) =
  J.Obj
    [
      ("var", J.Int t.Cert.t_var);
      ("hi", J.Bool t.Cert.t_hi);
      ("new", jf t.Cert.t_new);
      ("row", J.Int t.Cert.t_row);
    ]

let cut_to_json (c : Cert.cut) =
  let terms =
    J.List
      (Array.to_list
         (Array.map
            (fun (j, v) -> J.Obj [ ("j", J.Int j); ("c", jf v) ])
            c.Cert.cut_terms))
  in
  let (Cert.Cg mults) = c.Cert.cut_deriv in
  let deriv =
    J.Obj
      [
        ("kind", J.String "cg");
        ( "mults",
          J.List
            (Array.to_list
               (Array.map
                  (fun (i, l) -> J.Obj [ ("i", J.Int i); ("l", jf l) ])
                  mults)) );
      ]
  in
  J.Obj [ ("terms", terms); ("rhs", jf c.Cert.cut_rhs); ("deriv", deriv) ]

let pc_to_json (p : Node.pc) =
  J.Obj
    [
      ("dn_sum", jfarr p.dn_sum);
      ("dn_n", jiarr p.dn_n);
      ("up_sum", jfarr p.up_sum);
      ("up_n", jiarr p.up_n);
    ]

let payload_to_json ck =
  J.Obj
    [
      ("fingerprint", J.String ck.fingerprint);
      ("domains", J.Int ck.domains);
      ("next_nid", J.Int ck.next_nid);
      ("nodes_done", J.Int ck.nodes_done);
      ("pivots_done", J.Int ck.pivots_done);
      ("lp_limited", J.Int ck.lp_limited);
      ("fixed_vars", J.Int ck.fixed_vars);
      ("root_bound", jf ck.root_bound);
      ("root_lb", jfarr ck.root_lb);
      ("root_ub", jfarr ck.root_ub);
      ( "incumbent",
        match ck.incumbent with
        | None -> J.Null
        | Some (x, obj) -> J.Obj [ ("x", jfarr x); ("obj", jf obj) ] );
      ("first_incumbent_s", jf ck.first_incumbent_s);
      ("elapsed_s", jf ck.elapsed_s);
      ("frontier", J.List (List.map node_to_json ck.frontier));
      ("pc", J.List (Array.to_list (Array.map pc_to_json ck.pc)));
      ("certs_on", J.Bool ck.certs_on);
      ("cert_nodes", J.List (List.map cert_node_to_json ck.cert_nodes));
      ( "fixes",
        J.List
          (List.map
             (fun (j, s) -> J.Obj [ ("j", J.Int j); ("side", side_to_json s) ])
             ck.fixes) );
      ( "root_duals",
        match ck.root_duals with None -> J.Null | Some d -> jfarr d );
      ("presolve", J.List (List.map tighten_to_json ck.presolve));
      ("cuts", J.List (List.map cut_to_json ck.cuts));
      ("meta", ck.meta);
    ]

(* ---- decoding ------------------------------------------------------- *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let mem k j =
  match J.member k j with Some v -> v | None -> fail "missing field %S" k

let int_ = function J.Int i -> i | _ -> fail "expected int"
let str_ = function J.String s -> s | _ -> fail "expected string"
let bool_ = function J.Bool b -> b | _ -> fail "expected bool"
let list_ = function J.List l -> l | _ -> fail "expected list"

let flt_ = function
  | J.String s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> fail "bad hex float %S" s)
  | _ -> fail "expected hex-float string"

let farr j = Array.of_list (List.map flt_ (list_ j))
let iarr j = Array.of_list (List.map int_ (list_ j))

let side_of_json j =
  match str_ j with
  | "lower" -> Cert.Lower
  | "upper" -> Cert.Upper
  | s -> fail "bad side %S" s

let claim_of_json j =
  match str_ (mem "kind" j) with
  | "optimal" ->
      Cert.Lp_optimal { obj = flt_ (mem "obj" j); duals = farr (mem "duals" j) }
  | "infeasible" -> (
      match (J.member "ray" j, J.member "empty_box" j) with
      | Some r, _ -> Cert.Lp_infeasible (Some (Cert.Ray (farr r)))
      | None, Some b -> Cert.Lp_infeasible (Some (Cert.Empty_box (int_ b)))
      | None, None -> Cert.Lp_infeasible None)
  | "unsolved" -> Cert.Lp_unsolved
  | s -> fail "bad claim kind %S" s

let fathom_of_json j =
  match str_ (mem "kind" j) with
  | "branched" ->
      Cert.F_branched
        {
          bvar = int_ (mem "bvar" j);
          down_id = int_ (mem "down_id" j);
          down_ub = flt_ (mem "down_ub" j);
          up_id = int_ (mem "up_id" j);
          up_lb = flt_ (mem "up_lb" j);
        }
  | "integral" -> Cert.F_integral
  | "bound" -> Cert.F_bound
  | "dominated" -> Cert.F_dominated
  | "infeasible" -> Cert.F_infeasible
  | "budget" -> Cert.F_budget
  | s -> fail "bad fathom kind %S" s

let cert_node_of_json j : Cert.node =
  {
    Cert.id = int_ (mem "id" j);
    parent = int_ (mem "parent" j);
    branch =
      (match mem "branch" j with
      | J.Null -> None
      | b ->
          Some (int_ (mem "j" b), side_of_json (mem "side" b), flt_ (mem "v" b)));
    depth = int_ (mem "depth" j);
    domain = int_ (mem "domain" j);
    claim = claim_of_json (mem "claim" j);
    bound = flt_ (mem "bound" j);
    incumbent_at = flt_ (mem "incumbent_at" j);
    fathom = fathom_of_json (mem "fathom" j);
  }

(* Each node's chain is rebuilt on its own; chains of different nodes
   then share only [Root], which the bound walk between nodes handles. *)
let node_of_json j : Node.t =
  let bounds =
    List.fold_left
      (fun parent e ->
        Node.Tighten
          { j = int_ (mem "j" e); side = side_of_json (mem "side" e);
            v = flt_ (mem "v" e); prev = flt_ (mem "prev" e);
            depth = Node.depth parent + 1; parent })
      Node.Root
      (list_ (mem "edits" j))
  in
  {
    Node.nid = int_ (mem "nid" j);
    parent = int_ (mem "parent" j);
    bounds;
    bound = flt_ (mem "bound" j);
    bvar = int_ (mem "bvar" j);
    bfrac = flt_ (mem "bfrac" j);
    dir_up = bool_ (mem "dir_up" j);
  }

let pc_of_json j =
  {
    Node.dn_sum = farr (mem "dn_sum" j);
    dn_n = iarr (mem "dn_n" j);
    up_sum = farr (mem "up_sum" j);
    up_n = iarr (mem "up_n" j);
  }

let tighten_of_json j : Cert.tighten =
  {
    Cert.t_var = int_ (mem "var" j);
    t_hi = bool_ (mem "hi" j);
    t_new = flt_ (mem "new" j);
    t_row = int_ (mem "row" j);
  }

let cut_of_json j : Cert.cut =
  {
    Cert.cut_terms =
      Array.of_list
        (List.map
           (fun t -> (int_ (mem "j" t), flt_ (mem "c" t)))
           (list_ (mem "terms" j)));
    cut_rhs = flt_ (mem "rhs" j);
    cut_deriv =
      (let d = mem "deriv" j in
       match str_ (mem "kind" d) with
       | "cg" ->
           Cert.Cg
             (Array.of_list
                (List.map
                   (fun m -> (int_ (mem "i" m), flt_ (mem "l" m)))
                   (list_ (mem "mults" d))))
       | s -> fail "bad cut derivation kind %S" s);
  }

let payload_of_json j =
  {
    fingerprint = str_ (mem "fingerprint" j);
    domains = int_ (mem "domains" j);
    next_nid = int_ (mem "next_nid" j);
    nodes_done = int_ (mem "nodes_done" j);
    pivots_done =
      (match J.member "pivots_done" j with Some v -> int_ v | None -> 0);
    lp_limited = int_ (mem "lp_limited" j);
    fixed_vars = int_ (mem "fixed_vars" j);
    root_bound = flt_ (mem "root_bound" j);
    root_lb = farr (mem "root_lb" j);
    root_ub = farr (mem "root_ub" j);
    incumbent =
      (match mem "incumbent" j with
      | J.Null -> None
      | inc -> Some (farr (mem "x" inc), flt_ (mem "obj" inc)));
    first_incumbent_s = flt_ (mem "first_incumbent_s" j);
    elapsed_s = flt_ (mem "elapsed_s" j);
    frontier = List.map node_of_json (list_ (mem "frontier" j));
    pc = Array.of_list (List.map pc_of_json (list_ (mem "pc" j)));
    certs_on = bool_ (mem "certs_on" j);
    cert_nodes = List.map cert_node_of_json (list_ (mem "cert_nodes" j));
    fixes =
      List.map
        (fun f -> (int_ (mem "j" f), side_of_json (mem "side" f)))
        (list_ (mem "fixes" j));
    root_duals =
      (match mem "root_duals" j with J.Null -> None | d -> Some (farr d));
    (* Absent in files written before presolve/cuts existed: default to
       empty rather than failing, so v1 checkpoints stay readable. *)
    presolve =
      (match J.member "presolve" j with
      | None -> []
      | Some l -> List.map tighten_of_json (list_ l));
    cuts =
      (match J.member "cuts" j with
      | None -> []
      | Some l -> List.map cut_of_json (list_ l));
    meta = mem "meta" j;
  }

(* ---- file I/O ------------------------------------------------------- *)

(* The checksum covers the serialized payload text. Because every float
   travels as a string, parse-then-reemit reproduces the writer's bytes
   exactly, so the reader can recompute the digest from the parsed
   tree. *)
let to_json ck =
  let payload = payload_to_json ck in
  let digest = Digest.to_hex (Digest.string (J.to_string payload)) in
  J.Obj
    [
      ("schema", J.String schema);
      ("checksum", J.String digest);
      ("payload", payload);
    ]

let of_json j =
  match J.member "schema" j with
  | Some (J.String s) when s = schema -> (
      match (J.member "checksum" j, J.member "payload" j) with
      | Some (J.String digest), Some payload ->
          let actual = Digest.to_hex (Digest.string (J.to_string payload)) in
          if actual <> digest then
            Error "checkpoint checksum mismatch (torn or corrupted file)"
          else (
            match payload_of_json payload with
            | ck -> Ok ck
            | exception Bad m -> Error ("malformed checkpoint: " ^ m))
      | _ -> Error "checkpoint missing checksum or payload")
  | Some (J.String s) -> Error (Printf.sprintf "unknown checkpoint schema %S" s)
  | _ -> Error "not a pipesyn checkpoint (no schema field)"

let write ~path ck =
  let s = J.to_string (to_json ck) in
  if Resilience.Fault.fires "milp.checkpoint_torn" then begin
    (* Injected torn write: half the bytes land under the real name with
       no rename barrier — exactly the failure the checksum must catch. *)
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (String.sub s 0 (String.length s / 2)))
  end
  else begin
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc s;
        output_char oc '\n');
    Sys.rename tmp path
  end

let read ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error ("cannot read checkpoint: " ^ m)
  | s -> (
      match J.of_string (String.trim s) with
      | Error m -> Error ("checkpoint is not valid JSON (torn?): " ^ m)
      | Ok j -> of_json j)
