open Peel_topology

module Iset = Set.Make (Int)

(* Accumulates parent bindings, ignoring repeats for the same child. *)
type acc = { mutable bindings : (int * (int * int)) list; mutable seen : Iset.t }

let add_edge g acc ~parent ~child =
  if not (Iset.mem child acc.seen) then begin
    match Graph.link_between g parent child with
    | None ->
        invalid_arg
          (Printf.sprintf "Symmetric.build: no up link %d->%d (fabric asymmetric?)"
             parent child)
    | Some lid ->
        acc.bindings <- (child, (parent, lid)) :: acc.bindings;
        acc.seen <- Iset.add child acc.seen
  end

(* The symmetric tree's parent bindings, which [build] lowers through
   [Tree.of_parents]. *)
let bindings fabric ~source ~dests =
  let g = Fabric.graph fabric in
  let dests = List.sort_uniq compare (List.filter (fun d -> d <> source) dests) in
  let acc = { bindings = []; seen = Iset.add source Iset.empty } in
  let src_tor = Fabric.attach_tor fabric source in
  (* Every endpoint (host, or GPU through its dedicated NIC) hangs
     directly off its ToR, so the tree is: source -> ToR -> upper tiers
     -> destination ToRs -> destination endpoints. *)
  let by_tor = Hashtbl.create 16 in
  List.iter
    (fun d ->
      let tor = Fabric.attach_tor fabric d in
      Hashtbl.replace by_tor tor
        (d :: Option.value (Hashtbl.find_opt by_tor tor) ~default:[]))
    dests;
  let tors_needed =
    Hashtbl.fold (fun t _ acc -> if t <> src_tor then t :: acc else acc) by_tor []
    |> List.sort compare
  in
  if dests <> [] then add_edge g acc ~parent:source ~child:src_tor;
  (* Upper tiers, only if some ToR outside the source ToR is involved. *)
  (match fabric with
  | Fabric.Ls ls when tors_needed <> [] ->
      let spine = ls.Leaf_spine.spines.(0) in
      add_edge g acc ~parent:src_tor ~child:spine;
      List.iter (fun tor -> add_edge g acc ~parent:spine ~child:tor) tors_needed
  | Fabric.Ls _ -> ()
  | Fabric.Rl rl when tors_needed <> [] ->
      (* Two-tier like a leaf-spine: one spine covers all rail ToRs. *)
      let spine = rl.Rail.spines.(0) in
      add_edge g acc ~parent:src_tor ~child:spine;
      List.iter (fun tor -> add_edge g acc ~parent:spine ~child:tor) tors_needed
  | Fabric.Rl _ -> ()
  | Fabric.Ft ft when tors_needed <> [] ->
      let by_pod = Hashtbl.create 8 in
      List.iter
        (fun tor ->
          let p = Fabric.pod_of_tor fabric tor in
          Hashtbl.replace by_pod p
            (tor :: Option.value (Hashtbl.find_opt by_pod p) ~default:[]))
        tors_needed;
      let src_pod = Fabric.pod_of_tor fabric src_tor in
      let pods_needed =
        Hashtbl.fold (fun p _ acc -> p :: acc) by_pod [] |> List.sort compare
      in
      let agg_of_pod p = ft.Fat_tree.aggs_of_pod.(p).(0) in
      let core = ft.Fat_tree.cores.(0) in
      let src_agg = agg_of_pod src_pod in
      add_edge g acc ~parent:src_tor ~child:src_agg;
      let other_pods = List.filter (fun p -> p <> src_pod) pods_needed in
      if other_pods <> [] then begin
        add_edge g acc ~parent:src_agg ~child:core;
        List.iter
          (fun p ->
            let agg = agg_of_pod p in
            add_edge g acc ~parent:core ~child:agg;
            List.iter
              (fun tor -> add_edge g acc ~parent:agg ~child:tor)
              (List.sort compare (Hashtbl.find by_pod p)))
          other_pods
      end;
      (match Hashtbl.find_opt by_pod src_pod with
      | Some tors ->
          List.iter
            (fun tor -> add_edge g acc ~parent:src_agg ~child:tor)
            (List.sort compare tors)
      | None -> ())
  | Fabric.Ft _ -> ()
  | Fabric.Zo _ ->
      (* No closed-form optimum beyond the source rack on zoo fabrics:
         force the caller (Peel.multicast_tree, TREE005's lower bound)
         onto the general layer-peeling path.  A single-rack group is
         still exact — source -> ToR -> destinations needs no upper
         tier. *)
      if tors_needed <> [] then
        invalid_arg
          "Symmetric.build: no closed-form optimal tree on a zoo fabric");
  (* Down edges: ToR -> destination endpoint (host or GPU NIC). *)
  Hashtbl.iter
    (fun tor eps ->
      List.iter (fun e -> add_edge g acc ~parent:tor ~child:e) (List.sort compare eps))
    by_tor;
  acc.bindings

let build fabric ~source ~dests =
  Tree.of_parents (Fabric.graph fabric) ~root:source
    ~parents:(bindings fabric ~source ~dests)

(* Sorts [a] in place, skipping the sort when it already is: endpoint
   ids ascend with their ToR and pod on the built-in fabrics, so sorted
   destinations give sorted ToRs and pods. *)
let sort_ints a =
  let rec ascending i = i >= Array.length a || (a.(i - 1) <= a.(i) && ascending (i + 1)) in
  if not (ascending 1) then Array.stable_sort Int.compare a

(* Sorts [a] in place and counts its distinct values other than
   [except]. *)
let count_distinct_except a ~except =
  sort_ints a;
  let n = ref 0 in
  for i = 0 to Array.length a - 1 do
    if a.(i) <> except && (i = 0 || a.(i) <> a.(i - 1)) then incr n
  done;
  !n

(* The edge count of [bindings], in closed form: one edge per
   destination endpoint and one into the source ToR; with racks beyond
   the source's, one edge up from the source ToR and one into each
   such rack; on a fat-tree spanning other pods, one agg -> core edge
   and one into each other pod's aggregation switch. *)
let cost_lower_bound fabric ~source ~dests =
  let src_tor = Fabric.attach_tor fabric source in
  let eps = Array.of_list dests in
  sort_ints eps;
  (* Compact the distinct non-source destinations to the front. *)
  let nd = ref 0 in
  for i = 0 to Array.length eps - 1 do
    let d = eps.(i) in
    if d <> source && (!nd = 0 || eps.(!nd - 1) <> d) then begin
      eps.(!nd) <- d;
      incr nd
    end
  done;
  let nd = !nd in
  if nd = 0 then 0
  else begin
    let tors = Array.init nd (fun i -> Fabric.attach_tor fabric eps.(i)) in
    let racks = count_distinct_except tors ~except:src_tor in
    let upper =
      if racks = 0 then 0
      else
        match fabric with
        | Fabric.Ls _ | Fabric.Rl _ -> 1 + racks
        | Fabric.Ft _ ->
            let src_pod = Fabric.pod_of_tor fabric src_tor in
            let pods = Array.map (Fabric.pod_of_tor fabric) tors in
            let other_pods = count_distinct_except pods ~except:src_pod in
            1 + racks + if other_pods = 0 then 0 else 1 + other_pods
        | Fabric.Zo _ ->
            invalid_arg
              "Symmetric.cost_lower_bound: no closed-form optimum on a zoo \
               fabric"
    in
    1 + nd + upper
  end
