open Peel_topology

type t = {
  fabric : Fabric.t;
  ecmp : bool;
  cache : (int * int, int list) Hashtbl.t;
  bfs_cache : (int, int array) Hashtbl.t;
      (* BFS distance arrays keyed by the neighbour node they start
         from; a source's distances are derived from them
         ([Graph.dist_via_neighbours]), so sources sharing an NVSwitch or
         ToR share BFSs. *)
}

let create ?(ecmp = true) fabric =
  {
    fabric;
    ecmp;
    cache = Hashtbl.create 4096;
    bfs_cache = Hashtbl.create 64;
  }

let neighbour_bfs t g u =
  match Hashtbl.find_opt t.bfs_cache u with
  | Some d -> d
  | None ->
      let d = Graph.bfs_dist g u in
      Hashtbl.replace t.bfs_cache u d;
      d

let same_server fabric a b =
  let g = Fabric.graph fabric in
  (Graph.node g a).Graph.kind = Graph.Gpu
  && (Graph.node g b).Graph.kind = Graph.Gpu
  && Fabric.host_of_gpu fabric a = Fabric.host_of_gpu fabric b

let compute t a b =
  let g = Fabric.graph t.fabric in
  let nodes =
    if same_server t.fabric a b then
      (* Prefer NVLink through the NVSwitch over the equally-short
         NIC-ToR-NIC detour: intra-server bytes are free fabric-wise. *)
      [ a; Fabric.host_of_gpu t.fabric a; b ]
    else begin
      (* Hash-diverse equal-cost path, as flow-level ECMP would pick;
         without ECMP every flow funnels onto the lowest-id path. *)
      let dist = Graph.dist_via_neighbours g a ~neighbour_dist:(neighbour_bfs t g) in
      let path =
        if t.ecmp then Graph.shortest_path_ecmp_from_dist g ~dist a b ~salt:0
        else Graph.shortest_path_from_dist g ~dist a b
      in
      match path with
      | Some p -> p
      | None -> invalid_arg "Paths.links: endpoints disconnected"
    end
  in
  Peel_sim.Transfer.path_links g nodes

let links t a b =
  if a = b then []
  else
    match Hashtbl.find_opt t.cache (a, b) with
    | Some l -> l
    | None ->
        let l = compute t a b in
        Hashtbl.replace t.cache (a, b) l;
        l

let invalidate t =
  Hashtbl.reset t.cache;
  Hashtbl.reset t.bfs_cache
