type kind = Gpu | Host | Tor | Agg | Core | Spine

let kind_to_string = function
  | Gpu -> "gpu"
  | Host -> "host"
  | Tor -> "tor"
  | Agg -> "agg"
  | Core -> "core"
  | Spine -> "spine"

let kind_is_switch = function
  | Tor | Agg | Core | Spine -> true
  | Gpu | Host -> false

type node = { id : int; kind : kind; pod : int; idx : int }

type link = {
  link_id : int;
  src : int;
  dst : int;
  bandwidth : float;
  latency : float;
  mutable up : bool;
}

type t = {
  nodes : node array;
  links : link array;
  adj : (int * int) array array; (* out-edges: (dst node, link id) *)
}

module Builder = struct
  type b = {
    mutable rev_nodes : node list;
    mutable rev_links : link list;
    mutable n_nodes : int;
    mutable n_links : int;
  }

  type t = b

  let create () = { rev_nodes = []; rev_links = []; n_nodes = 0; n_links = 0 }

  let add_node b kind ~pod ~idx =
    let id = b.n_nodes in
    b.rev_nodes <- { id; kind; pod; idx } :: b.rev_nodes;
    b.n_nodes <- id + 1;
    id

  let add_duplex b ?(latency = 500e-9) ~bandwidth a c =
    if a = c then invalid_arg "Graph.Builder.add_duplex: self-loop";
    let fwd = b.n_links in
    let bwd = fwd + 1 in
    b.rev_links <-
      { link_id = bwd; src = c; dst = a; bandwidth; latency; up = true }
      :: { link_id = fwd; src = a; dst = c; bandwidth; latency; up = true }
      :: b.rev_links;
    b.n_links <- b.n_links + 2;
    fwd

  let finish b =
    let nodes = Array.of_list (List.rev b.rev_nodes) in
    let links = Array.of_list (List.rev b.rev_links) in
    let degree = Array.make (Array.length nodes) 0 in
    Array.iter (fun l -> degree.(l.src) <- degree.(l.src) + 1) links;
    let adj = Array.map (fun d -> Array.make d (0, 0)) degree in
    let fill = Array.make (Array.length nodes) 0 in
    Array.iter
      (fun l ->
        adj.(l.src).(fill.(l.src)) <- (l.dst, l.link_id);
        fill.(l.src) <- fill.(l.src) + 1)
      links;
    (* Sort out-edges by (dst, link id) so traversal order is stable and
       independent of construction order.  The keys are distinct, so the
       merge sort gives the same order as any other; it is the fastest
       on these short arrays and allocates least. *)
    let by_dst_link (a, la) (b, lb) =
      if a <> b then Int.compare a b else Int.compare la lb
    in
    Array.iter (fun edges -> Array.stable_sort by_dst_link edges) adj;
    { nodes; links; adj }
end

let num_nodes t = Array.length t.nodes
let num_links t = Array.length t.links
let node t i = t.nodes.(i)
let link t i = t.links.(i)
let nodes t = t.nodes
let links t = t.links
let peer_link id = id lxor 1
let out_links t v = t.adj.(v)
let link_up t i = t.links.(i).up
let degree t v = Array.length t.adj.(v)

let up_degree t v =
  Array.fold_left
    (fun acc (_, lid) -> if link_up t lid then acc + 1 else acc)
    0 t.adj.(v)

let link_between t a c =
  let best = ref None in
  Array.iter
    (fun (dst, lid) ->
      if dst = c && t.links.(lid).up then
        match !best with
        | Some b when b <= lid -> ()
        | _ -> best := Some lid)
    t.adj.(a);
  !best

let fold_kind t kind f init =
  Array.fold_left (fun acc n -> if n.kind = kind then f acc n else acc) init t.nodes

let nodes_of_kind t kind =
  fold_kind t kind (fun acc n -> n.id :: acc) [] |> List.rev |> Array.of_list

let fail_link t i =
  t.links.(i).up <- false;
  t.links.(peer_link i).up <- false

let recover_link t i =
  t.links.(i).up <- true;
  t.links.(peer_link i).up <- true

let restore_all t = Array.iter (fun l -> l.up <- true) t.links

let duplex_ids t =
  Array.init (num_links t / 2) (fun i -> 2 * i)

let unreachable = max_int

let bfs_generic t src ~allow =
  let n = num_nodes t in
  if src < 0 || src >= n then invalid_arg "Graph.bfs: bad source";
  let dist = Array.make n unreachable in
  dist.(src) <- 0;
  (* Each node enters the FIFO at most once, so an [n]-slot array with
     head/tail cursors never wraps and the traversal allocates nothing
     beyond [dist] and the queue itself. *)
  let queue = Array.make n 0 in
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let dv = dist.(v) in
    let edges = t.adj.(v) in
    for i = 0 to Array.length edges - 1 do
      let w, lid = edges.(i) in
      if t.links.(lid).up && dist.(w) = unreachable && allow t.nodes.(w) then begin
        dist.(w) <- dv + 1;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  dist

let bfs_dist t src = bfs_generic t src ~allow:(fun _ -> true)

let bfs_dist_filtered t src ~allow = bfs_generic t src ~allow:(fun n -> allow n)

let hop_layers t src =
  let dist = bfs_dist t src in
  let maxd =
    Array.fold_left
      (fun acc d -> if d <> unreachable && d > acc then d else acc)
      0 dist
  in
  let layers = Array.make (maxd + 1) [] in
  (* Walk ids downward so each layer list ends up ascending. *)
  for v = num_nodes t - 1 downto 0 do
    let d = dist.(v) in
    if d <> unreachable then layers.(d) <- v :: layers.(d)
  done;
  layers

let shortest_path_from_dist t ~dist src dst =
  let n = num_nodes t in
  if dst < 0 || dst >= n then invalid_arg "Graph.shortest_path: bad destination";
  if dist dst = unreachable then None
  else begin
    (* Walk back from [dst], always taking the lowest-id predecessor at
       distance d-1; adjacency is sorted so scanning in order suffices. *)
    let rec back v acc =
      if v = src then v :: acc
      else begin
        let dv = dist v in
        let pred = ref (-1) in
        Array.iter
          (fun (w, lid) ->
            if !pred = -1 && t.links.(peer_link lid).up && dist w = dv - 1 then
              pred := w)
          t.adj.(v);
        assert (!pred >= 0);
        back !pred (v :: acc)
      end
    in
    Some (back dst [])
  end

let shortest_path t src dst =
  shortest_path_from_dist t ~dist:(Array.get (bfs_dist t src)) src dst

(* SplitMix64-style finalizer over a few ints, for ECMP hashing. *)
let mix_ints ints =
  let mix64 z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))
  in
  let h =
    List.fold_left
      (fun acc x -> mix64 (Int64.add acc (Int64.of_int x)))
      0x9E3779B97F4A7C15L ints
  in
  Int64.to_int (Int64.shift_right_logical h 1) land max_int

let shortest_path_ecmp_from_dist t ~dist src dst ~salt =
  let n = num_nodes t in
  if dst < 0 || dst >= n then invalid_arg "Graph.shortest_path_ecmp: bad destination";
  if dist dst = unreachable then None
  else begin
    let rec back v acc =
      if v = src then v :: acc
      else begin
        let dv = dist v in
        let preds = ref [] in
        Array.iter
          (fun (w, lid) ->
            if t.links.(peer_link lid).up && dist w = dv - 1 then
              preds := w :: !preds)
          t.adj.(v);
        let preds = Array.of_list (List.rev !preds) in
        let count = Array.length preds in
        assert (count > 0);
        let pick = mix_ints [ src; dst; v; salt ] mod count in
        back preds.(pick) (v :: acc)
      end
    in
    Some (back dst [])
  end

let shortest_path_ecmp t src dst ~salt =
  shortest_path_ecmp_from_dist t ~dist:(Array.get (bfs_dist t src)) src dst ~salt

let dist_via_neighbours t src ~neighbour_dist =
  let firsts =
    Array.fold_left
      (fun acc (u, lid) -> if t.links.(lid).up then neighbour_dist u :: acc else acc)
      [] t.adj.(src)
    |> Array.of_list
  in
  fun v ->
    if v = src then 0
    else begin
      let best = ref unreachable in
      for i = 0 to Array.length firsts - 1 do
        let d = firsts.(i).(v) in
        if d < !best then best := d
      done;
      if !best = unreachable then unreachable else !best + 1
    end

let connected t nodes =
  match nodes with
  | [] | [ _ ] -> true
  | first :: rest ->
      let dist = bfs_dist t first in
      List.for_all (fun v -> dist.(v) <> unreachable) rest
