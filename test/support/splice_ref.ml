(* The whole-tree [Layer_peel.splice] that the path-only one replaced:
   every delta re-binds the whole tree through [Tree.of_parents] and
   prunes it to the chains the destinations need.  Kept as the
   reference the shipped splice is tested against. *)

open Peel_topology
module Tree = Peel_steiner.Tree
module Layer_peel = Peel_steiner.Layer_peel

let rank ?salt u =
  match salt with
  | None -> u
  | Some s ->
      let h = Hashtbl.hash (u, s) in
      (h * 65599) lxor (h lsr 7)

(* Bindings of [prev] as an association list, plus a membership test. *)
let bindings_of prev =
  let bs = ref [] in
  let rec walk v =
    List.iter
      (fun (child, lid) ->
        bs := (child, (v, lid)) :: !bs;
        walk child)
      (Tree.children prev v)
  in
  walk (Tree.root prev);
  !bs

(* Drop every binding that no longer feeds a destination: mark the
   root-ward chain of each dest, keep marked bindings only. *)
let prune_bindings g ~root ~bindings ~dests =
  let n = Graph.num_nodes g in
  let parent_of = Array.make n None in
  List.iter (fun (v, pl) -> parent_of.(v) <- Some pl) bindings;
  let needed = Array.make n false in
  needed.(root) <- true;
  let rec mark v =
    if not needed.(v) then begin
      needed.(v) <- true;
      match parent_of.(v) with Some (p, _) -> mark p | None -> ()
    end
  in
  List.iter mark dests;
  List.filter (fun (v, _) -> needed.(v)) bindings

let splice ?salt ?dist g ~prev ~source ~dests ~delta =
  if Tree.root prev <> source then
    invalid_arg "Layer_peel.splice: previous tree not rooted at the source";
  let dests = List.sort_uniq compare (List.filter (fun d -> d <> source) dests) in
  (match delta with
  | Layer_peel.Add d ->
      if not (List.mem d dests) then
        invalid_arg "Layer_peel.splice: added member missing from dests"
  | Layer_peel.Remove d ->
      if List.mem d dests then
        invalid_arg "Layer_peel.splice: removed member still in dests");
  match delta with
  | Layer_peel.Remove d ->
      if not (Tree.mem prev d) then Some prev
      else
        let bindings =
          prune_bindings g ~root:source ~bindings:(bindings_of prev) ~dests
        in
        Some (Tree.of_parents g ~root:source ~parents:bindings)
  | Layer_peel.Add d ->
      if d = source || Tree.mem prev d then Some prev
      else begin
        let dist = match dist with Some a -> a | None -> Graph.bfs_dist g source in
        if dist.(d) = Graph.unreachable then None
        else begin
          (* Climb from the new subscriber toward the source along BFS
             layers, binding each hop to the lowest-ranked previous-layer
             neighbour — preferring one already in the tree, where the
             climb stops.  This splices a single-path subtree in without
             touching any existing binding. *)
          let fresh = ref [] in
          let on_path = Hashtbl.create 8 in
          let exception Climb_failed in
          let rec climb v =
            if not (Tree.mem prev v) then begin
              let dv = dist.(v) in
              let candidates =
                Array.to_list (Graph.out_links g v)
                |> List.filter_map (fun (u, lid) ->
                       let rev = Graph.peer_link lid in
                       if
                         Graph.link_up g rev
                         && dist.(u) = dv - 1
                         && not (Hashtbl.mem on_path u)
                       then Some (u, rev)
                       else None)
              in
              let in_tree, fresh_cands =
                List.partition (fun (u, _) -> Tree.mem prev u) candidates
              in
              let best = function
                | [] -> None
                | first :: rest ->
                    Some
                      (List.fold_left
                         (fun (bu, bl) (u, l) ->
                           if rank ?salt u < rank ?salt bu then (u, l)
                           else (bu, bl))
                         first rest)
              in
              match best in_tree with
              | Some (u, lid) -> fresh := (v, (u, lid)) :: !fresh
              | None -> (
                  match best fresh_cands with
                  | Some (u, lid) ->
                      fresh := (v, (u, lid)) :: !fresh;
                      Hashtbl.replace on_path v ();
                      climb u
                  | None ->
                      (* A fresh BFS guarantees a shortest-path
                         predecessor at every hop, but a caller-supplied
                         [dist] may be stale and links may have gone
                         down since it was computed — honor the option
                         contract and let the caller fall back to a
                         full peel. *)
                      raise Climb_failed)
            end
          in
          match climb d with
          | exception Climb_failed -> None
          | () ->
              let bindings = !fresh @ bindings_of prev in
              (* The previous tree may carry members the shrinking side
                 of the churn already removed from [dests]; prune to the
                 chains the current membership needs. *)
              let bindings = prune_bindings g ~root:source ~bindings ~dests in
              Some (Tree.of_parents g ~root:source ~parents:bindings)
        end
      end

