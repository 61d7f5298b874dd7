open Peel_topology

module Imap = Map.Make (Int)

type t = {
  root : int;
  parents : (int * int) Imap.t; (* node -> (parent, link id) *)
  child_map : (int * int) list Imap.t; (* node -> (child, link id), ascending *)
}

let root t = t.root

let check_link g ~fn ~parent ~node lid =
  let l = Graph.link g lid in
  if l.Graph.src <> parent || l.Graph.dst <> node then
    invalid_arg (fn ^ ": link does not run parent->node")

let of_parents g ~root ~parents =
  let pmap =
    List.fold_left
      (fun acc (node, (parent, lid)) ->
        if Imap.mem node acc then
          invalid_arg "Tree.of_parents: duplicate binding for a node";
        if node = root then invalid_arg "Tree.of_parents: root cannot have a parent";
        check_link g ~fn:"Tree.of_parents" ~parent ~node lid;
        Imap.add node (parent, lid) acc)
      Imap.empty parents
  in
  (* Every parent chain must reach the root without cycling.  Nodes on
     an already-verified chain are remembered, so the whole pass is
     O(bindings) instead of O(bindings * depth). *)
  let n = List.length parents in
  let verified = Bytes.make (Graph.num_nodes g) '\000' in
  Imap.iter
    (fun node _ ->
      let rec walk v steps path =
        if v = root || Bytes.get verified v = '\001' then
          List.iter (fun u -> Bytes.set verified u '\001') path
        else if steps > n then
          invalid_arg "Tree.of_parents: parent chain does not reach the root"
        else
          match Imap.find_opt v pmap with
          | None -> invalid_arg "Tree.of_parents: parent chain does not reach the root"
          | Some (p, _) -> walk p (steps + 1) (v :: path)
      in
      walk node 0 [])
    pmap;
  let child_map =
    Imap.fold
      (fun node (parent, lid) acc ->
        let existing = Option.value (Imap.find_opt parent acc) ~default:[] in
        Imap.add parent ((node, lid) :: existing) acc)
      pmap Imap.empty
    |> Imap.map (List.sort compare)
  in
  { root; parents = pmap; child_map }

let members t =
  (* [Imap.fold] visits nodes ascending, so consing yields them
     descending; folding that back inserts the root on the way. *)
  let rec up acc placed = function
    | [] -> if placed then acc else t.root :: acc
    | v :: rest ->
        if (not placed) && v < t.root then up (v :: t.root :: acc) true rest
        else up (v :: acc) placed rest
  in
  up [] false (Imap.fold (fun node _ acc -> node :: acc) t.parents [])

let mem t v = v = t.root || Imap.mem v t.parents
let parent t v = Imap.find_opt v t.parents

let children t v = Option.value (Imap.find_opt v t.child_map) ~default:[]

let is_leaf t v = Imap.mem v t.parents && not (Imap.mem v t.child_map)

(* [child_map] holds an entry only for members with at least one child. *)
let leaf_count t =
  Imap.cardinal t.parents - Imap.cardinal t.child_map
  + if Imap.mem t.root t.child_map then 1 else 0

(* Insert keeping the (child, link) order [of_parents] sorts into. *)
let rec insert_child ((c, l) as e) = function
  | [] -> [ e ]
  | ((c', l') as x) :: rest ->
      if c < c' || (c = c' && l < l') then e :: x :: rest
      else x :: insert_child e rest

let graft g t bindings =
  List.fold_left
    (fun t (node, (parent, lid)) ->
      if node = t.root then invalid_arg "Tree.graft: root cannot have a parent";
      if Imap.mem node t.parents then
        invalid_arg "Tree.graft: node already in the tree";
      if not (mem t parent) then invalid_arg "Tree.graft: parent not in the tree";
      check_link g ~fn:"Tree.graft" ~parent ~node lid;
      {
        t with
        parents = Imap.add node (parent, lid) t.parents;
        child_map =
          Imap.add parent (insert_child (node, lid) (children t parent)) t.child_map;
      })
    t bindings

let rec cut t v ~keep =
  match Imap.find_opt v t.parents with
  | None -> t (* the root, or not a member *)
  | Some _ when Imap.mem v t.child_map -> t
  | Some (p, _) ->
      let siblings = List.filter (fun (c, _) -> c <> v) (children t p) in
      let t =
        {
          t with
          parents = Imap.remove v t.parents;
          child_map =
            (if siblings = [] then Imap.remove p t.child_map
             else Imap.add p siblings t.child_map);
        }
      in
      if siblings = [] && not (keep p) then cut t p ~keep else t

let edges t =
  Imap.fold (fun node (parent, lid) acc -> (parent, node, lid) :: acc) t.parents []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)

let link_ids t = Imap.fold (fun _ (_, lid) acc -> lid :: acc) t.parents []
let cost t = Imap.cardinal t.parents

let switch_members g t =
  List.filter
    (fun v -> Graph.kind_is_switch (Graph.node g v).Graph.kind)
    (members t)

let depth t v =
  if not (mem t v) then raise Not_found;
  let rec up v acc =
    match Imap.find_opt v t.parents with
    | None -> acc
    | Some (p, _) -> up p (acc + 1)
  in
  up v 0

let max_depth t =
  Imap.fold (fun node _ acc -> max acc (depth t node)) t.parents 0

let path_from_root t v =
  if not (mem t v) then raise Not_found;
  let rec up v acc =
    match Imap.find_opt v t.parents with
    | None -> v :: acc
    | Some (p, _) -> up p (v :: acc)
  in
  up v []

let validate g t ~dests =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_edge node (parent, lid) =
    if lid < 0 || lid >= Graph.num_links g then
      fail "node %d: link %d out of range" node lid
    else begin
      let l = Graph.link g lid in
      if l.Graph.src <> parent || l.Graph.dst <> node then
        fail "node %d: link %d does not run %d->%d" node lid parent node
      else if not l.Graph.up then fail "node %d: link %d is down" node lid
      else Ok ()
    end
  in
  let first_error =
    Imap.fold
      (fun node pe acc -> match acc with Ok () -> check_edge node pe | e -> e)
      t.parents (Ok ())
  in
  match first_error with
  | Error _ as e -> e
  | Ok () ->
      let missing = List.filter (fun d -> not (mem t d)) dests in
      if missing <> [] then
        fail "destinations not spanned: %s"
          (String.concat "," (List.map string_of_int missing))
      else Ok ()
