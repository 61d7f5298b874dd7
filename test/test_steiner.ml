(* Tests for peel_steiner: tree structure invariants, symmetric-optimal
   construction (Lemma 2.1), the layer-peeling greedy (§2.3) including
   its approximation bound (Lemma 2.3 / Theorem 2.5), and the exact
   Dreyfus-Wagner ground truth. *)

open Peel_topology
open Peel_steiner
module Rng = Peel_util.Rng

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let line_graph n =
  (* 0 - 1 - 2 - ... - (n-1) *)
  let b = Graph.Builder.create () in
  let nodes = Array.init n (fun i -> Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:i) in
  for i = 0 to n - 2 do
    ignore (Graph.Builder.add_duplex b ~bandwidth:1e9 nodes.(i) nodes.(i + 1))
  done;
  (Graph.Builder.finish b, nodes)

let expect_tree = function
  | Some t -> t
  | None -> Alcotest.fail "expected a tree"

let check_valid g tree ~dests =
  match Tree.validate g tree ~dests with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("tree invalid: " ^ e)

(* ------------------------------------------------------------------ *)
(* Tree                                                                *)
(* ------------------------------------------------------------------ *)

let test_tree_of_parents_basic () =
  let g, nodes = line_graph 3 in
  let lid01 = Option.get (Graph.link_between g nodes.(0) nodes.(1)) in
  let lid12 = Option.get (Graph.link_between g nodes.(1) nodes.(2)) in
  let t =
    Tree.of_parents g ~root:nodes.(0)
      ~parents:[ (nodes.(1), (nodes.(0), lid01)); (nodes.(2), (nodes.(1), lid12)) ]
  in
  Alcotest.(check int) "cost" 2 (Tree.cost t);
  Alcotest.(check int) "root" nodes.(0) (Tree.root t);
  Alcotest.(check (list int)) "members" [ 0; 1; 2 ] (Tree.members t);
  Alcotest.(check int) "depth of 2" 2 (Tree.depth t nodes.(2));
  Alcotest.(check int) "max depth" 2 (Tree.max_depth t);
  Alcotest.(check (list int)) "path" [ 0; 1; 2 ] (Tree.path_from_root t nodes.(2));
  Alcotest.(check bool) "mem" true (Tree.mem t nodes.(1));
  check_valid g t ~dests:[ nodes.(2) ]

let test_tree_children () =
  let g, nodes = line_graph 3 in
  let lid01 = Option.get (Graph.link_between g nodes.(0) nodes.(1)) in
  let t = Tree.of_parents g ~root:nodes.(0) ~parents:[ (nodes.(1), (nodes.(0), lid01)) ] in
  (match Tree.children t nodes.(0) with
  | [ (c, l) ] ->
      Alcotest.(check int) "child" nodes.(1) c;
      Alcotest.(check int) "link" lid01 l
  | _ -> Alcotest.fail "expected one child");
  Alcotest.(check (list (pair int int))) "leaf has no children" []
    (Tree.children t nodes.(1))

let test_tree_rejects_wrong_link () =
  let g, nodes = line_graph 3 in
  let lid01 = Option.get (Graph.link_between g nodes.(0) nodes.(1)) in
  (* Use the 0->1 link to claim 2's parent is 1: endpoints don't match. *)
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tree.of_parents g ~root:nodes.(0) ~parents:[ (nodes.(2), (nodes.(1), lid01)) ]);
       false
     with Invalid_argument _ -> true)

let test_tree_rejects_orphan_chain () =
  let g, nodes = line_graph 4 in
  let lid23 = Option.get (Graph.link_between g nodes.(2) nodes.(3)) in
  (* Node 3 hangs off node 2, but node 2 has no chain to the root. *)
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tree.of_parents g ~root:nodes.(0) ~parents:[ (nodes.(3), (nodes.(2), lid23)) ]);
       false
     with Invalid_argument _ -> true)

let test_tree_rejects_duplicate () =
  let g, nodes = line_graph 3 in
  let lid01 = Option.get (Graph.link_between g nodes.(0) nodes.(1)) in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Tree.of_parents g ~root:nodes.(0)
            ~parents:[ (nodes.(1), (nodes.(0), lid01)); (nodes.(1), (nodes.(0), lid01)) ]);
       false
     with Invalid_argument _ -> true)

let test_tree_validate_down_link () =
  let g, nodes = line_graph 3 in
  let lid01 = Option.get (Graph.link_between g nodes.(0) nodes.(1)) in
  let t = Tree.of_parents g ~root:nodes.(0) ~parents:[ (nodes.(1), (nodes.(0), lid01)) ] in
  Graph.fail_link g lid01;
  (match Tree.validate g t ~dests:[ nodes.(1) ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected failure on down link");
  Graph.restore_all g

let test_tree_validate_missing_dest () =
  let g, nodes = line_graph 3 in
  let lid01 = Option.get (Graph.link_between g nodes.(0) nodes.(1)) in
  let t = Tree.of_parents g ~root:nodes.(0) ~parents:[ (nodes.(1), (nodes.(0), lid01)) ] in
  match Tree.validate g t ~dests:[ nodes.(2) ] with
  | Error msg ->
      Alcotest.(check bool) "mentions missing dest" true
        (String.length msg > 0)
  | Ok () -> Alcotest.fail "expected missing-destination error"

(* ------------------------------------------------------------------ *)
(* Exact (Dreyfus-Wagner)                                              *)
(* ------------------------------------------------------------------ *)

let test_exact_two_terminals_is_distance () =
  let g, nodes = line_graph 6 in
  Alcotest.(check (option int)) "path length" (Some 5)
    (Exact.steiner_cost g ~terminals:[ nodes.(0); nodes.(5) ])

let test_exact_star () =
  (* Hub 0 with 4 rays: spanning all leaves costs 4. *)
  let b = Graph.Builder.create () in
  let hub = Graph.Builder.add_node b Graph.Tor ~pod:0 ~idx:0 in
  let leaves =
    Array.init 4 (fun i ->
        let v = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:i in
        ignore (Graph.Builder.add_duplex b ~bandwidth:1e9 hub v);
        v)
  in
  let g = Graph.Builder.finish b in
  Alcotest.(check (option int)) "star" (Some 4)
    (Exact.steiner_cost g ~terminals:(Array.to_list leaves))

let test_exact_trivial () =
  let g, nodes = line_graph 3 in
  Alcotest.(check (option int)) "empty" (Some 0) (Exact.steiner_cost g ~terminals:[]);
  Alcotest.(check (option int)) "singleton" (Some 0)
    (Exact.steiner_cost g ~terminals:[ nodes.(1) ])

let test_exact_disconnected () =
  let g, nodes = line_graph 3 in
  let lid = Option.get (Graph.link_between g nodes.(1) nodes.(2)) in
  Graph.fail_link g lid;
  Alcotest.(check (option int)) "unreachable" None
    (Exact.steiner_cost g ~terminals:[ nodes.(0); nodes.(2) ]);
  Graph.restore_all g

let test_exact_too_many_terminals () =
  let g, nodes = line_graph 20 in
  let terms = Array.to_list (Array.sub nodes 0 13) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Exact.steiner_cost g ~terminals:terms);
       false
     with Invalid_argument _ -> true)

let test_exact_steiner_point_helps () =
  (* Spider: center c, three legs of length 2 to terminals.  The optimal
     tree uses the non-terminal center: cost 6. *)
  let b = Graph.Builder.create () in
  let c = Graph.Builder.add_node b Graph.Tor ~pod:0 ~idx:0 in
  let terms =
    List.init 3 (fun i ->
        let mid = Graph.Builder.add_node b Graph.Tor ~pod:0 ~idx:(10 + i) in
        let t = Graph.Builder.add_node b Graph.Host ~pod:0 ~idx:i in
        ignore (Graph.Builder.add_duplex b ~bandwidth:1e9 c mid);
        ignore (Graph.Builder.add_duplex b ~bandwidth:1e9 mid t);
        t)
  in
  let g = Graph.Builder.finish b in
  Alcotest.(check (option int)) "spider" (Some 6) (Exact.steiner_cost g ~terminals:terms)

(* ------------------------------------------------------------------ *)
(* Symmetric optimal (Lemma 2.1)                                       *)
(* ------------------------------------------------------------------ *)

let test_symmetric_leaf_spine_matches_exact () =
  let f = Fabric.leaf_spine ~spines:2 ~leaves:3 ~hosts_per_leaf:2 () in
  let hosts = Fabric.hosts f in
  let source = hosts.(0) in
  let dests = [ hosts.(1); hosts.(2); hosts.(4) ] in
  let t = Symmetric.build f ~source ~dests in
  check_valid (Fabric.graph f) t ~dests;
  let exact = Option.get (Exact.steiner_cost (Fabric.graph f) ~terminals:(source :: dests)) in
  Alcotest.(check int) "optimal cost" exact (Tree.cost t)

let test_symmetric_fat_tree_matches_exact () =
  let f = Fabric.fat_tree ~k:4 () in
  let hosts = Fabric.hosts f in
  (* Destinations spanning same-ToR, same-pod and cross-pod cases. *)
  let source = hosts.(0) in
  let dests = [ hosts.(1); hosts.(3); hosts.(8); hosts.(15) ] in
  let t = Symmetric.build f ~source ~dests in
  check_valid (Fabric.graph f) t ~dests;
  let exact = Option.get (Exact.steiner_cost (Fabric.graph f) ~terminals:(source :: dests)) in
  Alcotest.(check int) "optimal cost" exact (Tree.cost t)

let test_symmetric_same_host_gpus () =
  let f = Fabric.fat_tree ~k:4 ~gpus_per_host:4 () in
  (match f with
  | Fabric.Ft ft ->
      let gpus0 = ft.Fat_tree.gpus_of_host.(0) in
      let source = gpus0.(0) in
      let dests = [ gpus0.(1); gpus0.(2) ] in
      let t = Symmetric.build f ~source ~dests in
      check_valid (Fabric.graph f) t ~dests;
      (* gpu -> host -> 2 gpus: 3 NVLink edges, no fabric edge. *)
      Alcotest.(check int) "3 edges" 3 (Tree.cost t)
  | Fabric.Ls _ | Fabric.Rl _ | Fabric.Zo _ -> Alcotest.fail "expected fat-tree")

let test_symmetric_cross_pod_gpu () =
  let f = Fabric.fat_tree ~k:4 ~gpus_per_host:2 () in
  let gpus = Fabric.gpus f in
  let source = gpus.(0) in
  let dest = gpus.(Array.length gpus - 1) in
  let t = Symmetric.build f ~source ~dests:[ dest ] in
  check_valid (Fabric.graph f) t ~dests:[ dest ];
  (* gpu-NIC->tor->agg->core->agg->tor->gpu-NIC = 6 edges. *)
  Alcotest.(check int) "6 edges" 6 (Tree.cost t)

let test_symmetric_source_in_dests_ignored () =
  let f = Fabric.leaf_spine ~spines:2 ~leaves:2 ~hosts_per_leaf:2 () in
  let hosts = Fabric.hosts f in
  let t = Symmetric.build f ~source:hosts.(0) ~dests:[ hosts.(0); hosts.(1) ] in
  check_valid (Fabric.graph f) t ~dests:[ hosts.(1) ]

let test_symmetric_broadcast_cost_formula () =
  (* Full-fabric broadcast in a leaf-spine: cost = hosts-1 (down edges to
     other hosts) + 1 (src->leaf) + 1 (leaf->spine) + (leaves-1). *)
  let spines = 4 and leaves = 4 and hpl = 4 in
  let f = Fabric.leaf_spine ~spines ~leaves ~hosts_per_leaf:hpl () in
  let hosts = Fabric.hosts f in
  let source = hosts.(0) in
  let dests = Array.to_list (Array.sub hosts 1 (Array.length hosts - 1)) in
  let t = Symmetric.build f ~source ~dests in
  check_valid (Fabric.graph f) t ~dests;
  let expected = (leaves * hpl) - 1 + 1 + 1 + (leaves - 1) in
  Alcotest.(check int) "broadcast cost" expected (Tree.cost t)

(* ------------------------------------------------------------------ *)
(* Layer-peeling greedy                                                *)
(* ------------------------------------------------------------------ *)

let test_peel_symmetric_equals_optimal_leaf_spine () =
  let f = Fabric.leaf_spine ~spines:3 ~leaves:4 ~hosts_per_leaf:2 () in
  let hosts = Fabric.hosts f in
  let source = hosts.(0) in
  let dests = [ hosts.(2); hosts.(3); hosts.(5); hosts.(7) ] in
  let greedy = expect_tree (Layer_peel.build (Fabric.graph f) ~source ~dests) in
  check_valid (Fabric.graph f) greedy ~dests;
  let opt = Symmetric.build f ~source ~dests in
  Alcotest.(check int) "greedy = optimal in symmetric fabric" (Tree.cost opt)
    (Tree.cost greedy)

let test_peel_symmetric_equals_optimal_fat_tree () =
  let f = Fabric.fat_tree ~k:4 () in
  let hosts = Fabric.hosts f in
  let source = hosts.(0) in
  let dests = [ hosts.(1); hosts.(5); hosts.(9); hosts.(13) ] in
  let greedy = expect_tree (Layer_peel.build (Fabric.graph f) ~source ~dests) in
  check_valid (Fabric.graph f) greedy ~dests;
  let opt = Symmetric.build f ~source ~dests in
  Alcotest.(check int) "greedy = optimal in symmetric fat-tree" (Tree.cost opt)
    (Tree.cost greedy)

let test_peel_unreachable_dest () =
  let g, nodes = line_graph 3 in
  Graph.fail_link g (Option.get (Graph.link_between g nodes.(1) nodes.(2)));
  Alcotest.(check bool) "None" true
    (Layer_peel.build g ~source:nodes.(0) ~dests:[ nodes.(2) ] = None);
  Graph.restore_all g

let test_peel_farthest_layer () =
  let f = Fabric.fat_tree ~k:4 () in
  let hosts = Fabric.hosts f in
  Alcotest.(check (option int)) "cross-pod F" (Some 6)
    (Layer_peel.farthest_layer (Fabric.graph f) ~source:hosts.(0)
       ~dests:[ hosts.(1); hosts.(15) ])

let test_peel_paper_example_shape () =
  (* An asymmetric leaf-spine akin to the paper's Fig. 2: failures force
     the greedy around missing links, and the tree must stay valid. *)
  let f = Fabric.leaf_spine ~spines:2 ~leaves:4 ~hosts_per_leaf:2 () in
  let g = Fabric.graph f in
  (match f with
  | Fabric.Ls ls ->
      (* Disconnect spine 0 from leaves 2 and 3: spine 1 must carry them. *)
      let spine0 = ls.Leaf_spine.spines.(0) in
      let leaf2 = ls.Leaf_spine.leaves.(2) and leaf3 = ls.Leaf_spine.leaves.(3) in
      Graph.fail_link g (Option.get (Graph.link_between g spine0 leaf2));
      Graph.fail_link g (Option.get (Graph.link_between g spine0 leaf3));
      let hosts = Fabric.hosts f in
      let source = hosts.(0) in
      let dests = [ hosts.(2); hosts.(4); hosts.(6) ] in
      let t = expect_tree (Layer_peel.build g ~source ~dests) in
      check_valid g t ~dests;
      (* spine1 covers leaves 1,2,3 with a single up pass: cost 1 (host->leaf)
         + 1 (leaf->spine1) + 3 (spine->leaves) + 3 (leaf->host) = 8. *)
      Alcotest.(check int) "routes around failures" 8 (Tree.cost t);
      Graph.restore_all g
  | Fabric.Ft _ | Fabric.Rl _ | Fabric.Zo _ -> Alcotest.fail "expected leaf-spine")

let test_peel_deterministic () =
  let f = Fabric.fat_tree ~k:4 () in
  let hosts = Fabric.hosts f in
  let source = hosts.(2) in
  let dests = [ hosts.(6); hosts.(10); hosts.(14) ] in
  let t1 = expect_tree (Layer_peel.build (Fabric.graph f) ~source ~dests) in
  let t2 = expect_tree (Layer_peel.build (Fabric.graph f) ~source ~dests) in
  Alcotest.(check (list int)) "same links"
    (List.sort compare (Tree.link_ids t1))
    (List.sort compare (Tree.link_ids t2))

(* Property: on random asymmetric leaf-spines the greedy tree is valid,
   spans all destinations, costs at least the exact optimum and at most
   |D| * F (Lemma 2.3). *)
let prop_peel_asymmetric =
  QCheck.Test.make ~name:"layer-peel: valid, bounded, >= exact optimum" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = Fabric.leaf_spine ~spines:3 ~leaves:4 ~hosts_per_leaf:2 () in
      let g = Fabric.graph f in
      let _ = Fabric.fail_random f ~rng ~tier:`All ~fraction:0.25 () in
      let hosts = Fabric.hosts f in
      let n = Array.length hosts in
      let source = hosts.(Rng.int rng n) in
      let dests =
        Rng.sample_without_replacement rng n 4
        |> List.map (fun i -> hosts.(i))
        |> List.filter (fun d -> d <> source)
      in
      let ok =
        match Layer_peel.build g ~source ~dests with
        | None -> false (* fail_random keeps hosts connected *)
        | Some t -> (
            match Tree.validate g t ~dests with
            | Error _ -> false
            | Ok () ->
                let cost = Tree.cost t in
                let far = Option.get (Layer_peel.farthest_layer g ~source ~dests) in
                let bound = List.length dests * far in
                let exact =
                  Option.get (Exact.steiner_cost g ~terminals:(source :: dests))
                in
                cost >= exact && cost <= max bound exact)
      in
      Graph.restore_all g;
      ok)

(* Property: on fat-trees with random ToR-uplink failures the greedy
   tree stays valid and within the Lemma 2.3 bound. *)
let prop_peel_fat_tree_failures =
  QCheck.Test.make ~name:"layer-peel valid on failed fat-trees" ~count:30
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = Fabric.fat_tree ~k:4 ~gpus_per_host:2 () in
      let g = Fabric.graph f in
      let _ = Fabric.fail_random f ~rng ~tier:`All ~fraction:0.15 () in
      let eps = Fabric.endpoints f in
      let n = Array.length eps in
      let source = eps.(Rng.int rng n) in
      let dests =
        Rng.sample_without_replacement rng n 6
        |> List.map (fun i -> eps.(i))
        |> List.filter (fun d -> d <> source)
      in
      let ok =
        match Layer_peel.build g ~source ~dests with
        | None -> dests = []
        | Some t -> (
            match Tree.validate g t ~dests with
            | Error _ -> false
            | Ok () ->
                let far =
                  Option.get (Layer_peel.farthest_layer g ~source ~dests)
                in
                Tree.cost t <= List.length dests * far)
      in
      Graph.restore_all g;
      ok)

(* Property: in symmetric leaf-spine fabrics greedy cost equals the
   Lemma 2.1 optimum. *)
let prop_peel_symmetric_optimal =
  QCheck.Test.make ~name:"layer-peel matches optimum in symmetric fabrics" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = Fabric.leaf_spine ~spines:4 ~leaves:6 ~hosts_per_leaf:2 () in
      let hosts = Fabric.hosts f in
      let n = Array.length hosts in
      let source = hosts.(Rng.int rng n) in
      let dests =
        Rng.sample_without_replacement rng n 5
        |> List.map (fun i -> hosts.(i))
        |> List.filter (fun d -> d <> source)
      in
      if dests = [] then true
      else begin
        let greedy =
          expect_tree (Layer_peel.build (Fabric.graph f) ~source ~dests)
        in
        let opt = Symmetric.build f ~source ~dests in
        Tree.cost greedy = Tree.cost opt
      end)

(* Property (Theorem 2.5, differential form): on small random fabrics —
   a k=4 fat-tree or a tiny leaf-spine — with random failure draws, the
   greedy cost stays within min(F, |D|) of the Dreyfus-Wagner exact
   optimum computed on the same failed graph.  This tightens the
   |D| * F envelope above: cost <= |D|*F = min*max <= min(F,|D|)*OPT
   since OPT >= F (farthest terminal) and OPT >= |D| (distinct parent
   edges). *)
let prop_peel_differential_min_bound =
  QCheck.Test.make ~name:"layer-peel <= min(F,|D|) x exact optimum" ~count:40
    QCheck.(pair bool (int_range 0 100000))
    (fun (fat, seed) ->
      let rng = Rng.create seed in
      let f =
        if fat then Fabric.fat_tree ~k:4 ()
        else Fabric.leaf_spine ~spines:2 ~leaves:4 ~hosts_per_leaf:2 ()
      in
      let g = Fabric.graph f in
      let _ = Fabric.fail_random f ~rng ~tier:`All ~fraction:0.2 () in
      let eps = Fabric.endpoints f in
      let n = Array.length eps in
      let source = eps.(Rng.int rng n) in
      let dests =
        Rng.sample_without_replacement rng n 4
        |> List.map (fun i -> eps.(i))
        |> List.filter (fun d -> d <> source)
      in
      let ok =
        if dests = [] then true
        else
          match Layer_peel.build g ~source ~dests with
          | None -> false (* fail_random keeps endpoints connected *)
          | Some t -> (
              match Tree.validate g t ~dests with
              | Error _ -> false
              | Ok () ->
                  let far =
                    Option.get (Layer_peel.farthest_layer g ~source ~dests)
                  in
                  let exact =
                    Option.get
                      (Exact.steiner_cost g ~terminals:(source :: dests))
                  in
                  Tree.cost t >= exact
                  && Tree.cost t <= min far (List.length dests) * exact)
      in
      Graph.restore_all g;
      ok)

(* Property: on unfailed fat-trees the greedy also matches the
   symmetric optimum (the property above this family covers only
   leaf-spines). *)
let prop_peel_symmetric_optimal_fat_tree =
  QCheck.Test.make ~name:"layer-peel matches optimum in symmetric fat-trees"
    ~count:30
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = Fabric.fat_tree ~k:4 ~gpus_per_host:2 () in
      let eps = Fabric.endpoints f in
      let n = Array.length eps in
      let source = eps.(Rng.int rng n) in
      let dests =
        Rng.sample_without_replacement rng n 5
        |> List.map (fun i -> eps.(i))
        |> List.filter (fun d -> d <> source)
      in
      if dests = [] then true
      else
        let greedy =
          expect_tree (Layer_peel.build (Fabric.graph f) ~source ~dests)
        in
        Tree.cost greedy = Tree.cost (Symmetric.build f ~source ~dests))

(* Property: after failing a tree edge (plus a small random extra draw)
   [repeel] returns a valid tree on the surviving fabric that keeps
   every surviving binding of the previous one — the TREE006 splice
   contract, checked with the static checker itself. *)
let prop_repeel_valid_and_splice =
  QCheck.Test.make ~name:"repeel: valid + splice-preserving after failures"
    ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = Fabric.leaf_spine ~spines:3 ~leaves:4 ~hosts_per_leaf:2 () in
      let g = Fabric.graph f in
      let hosts = Fabric.hosts f in
      let n = Array.length hosts in
      let source = hosts.(Rng.int rng n) in
      let dests =
        Rng.sample_without_replacement rng n 5
        |> List.map (fun i -> hosts.(i))
        |> List.filter (fun d -> d <> source)
      in
      if dests = [] then true
      else begin
        let prev = expect_tree (Layer_peel.build g ~source ~dests) in
        let edges = Tree.link_ids prev in
        let victim = List.nth edges (Rng.int rng (List.length edges)) in
        Graph.fail_link g victim;
        (* No connectivity guarantee here — the victim may already cut a
           host off; the [None] arm below covers that outcome. *)
        let _ =
          Fabric.fail_random f ~rng ~tier:`All ~fraction:0.05
            ~ensure_connected:false ()
        in
        let ok =
          match Layer_peel.repeel g ~prev ~source ~dests with
          | None ->
              (* Only acceptable when the cut disconnected a dest. *)
              not (Graph.connected g (source :: dests))
          | Some t ->
              Tree.validate g t ~dests = Ok ()
              && Peel_check.Diagnostic.errors
                   (Peel_check.Check_tree.check_splice g ~prev ~tree:t
                      ~source ~dests)
                 = []
        in
        Graph.restore_all g;
        ok
      end)

(* Property: re-peeling without any failure is the identity — same
   links, same cost, nothing rewired. *)
let prop_repeel_identity_without_failures =
  QCheck.Test.make ~name:"repeel: identity on unfailed fabrics" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let f = Fabric.fat_tree ~k:4 () in
      let g = Fabric.graph f in
      let hosts = Fabric.hosts f in
      let n = Array.length hosts in
      let source = hosts.(Rng.int rng n) in
      let dests =
        Rng.sample_without_replacement rng n 4
        |> List.map (fun i -> hosts.(i))
        |> List.filter (fun d -> d <> source)
      in
      if dests = [] then true
      else
        let prev = expect_tree (Layer_peel.build g ~source ~dests) in
        match Layer_peel.repeel g ~prev ~source ~dests with
        | None -> false
        | Some t ->
            Tree.cost t = Tree.cost prev
            && List.sort compare (Tree.link_ids t)
               = List.sort compare (Tree.link_ids prev))

(* Property (the service's delta-repeel differential): absorb a random
   join/leave delta sequence through [splice] under the Service's
   acceptance rule — structural validity plus the Theorem 2.5 cost
   envelope, falling back to a full peel otherwise — and at every step
   compare the maintained tree against the from-scratch peel of the
   current membership and the exact-entry delivery oracle
   ([Dataplane.deliver_exact]).  Both plans must reach exactly the
   member racks, and the incremental tree must never leave the full
   peel's approximation envelope. *)
let prop_splice_differential =
  QCheck.Test.make
    ~name:"splice differential: delta plans track the from-scratch peel"
    ~count:200
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let f =
        if Rng.bool rng then
          Fabric.leaf_spine ~spines:3 ~leaves:6 ~hosts_per_leaf:2 ()
        else Fabric.fat_tree ~k:4 ()
      in
      let g = Fabric.graph f in
      let hosts = Fabric.hosts f in
      let n = Array.length hosts in
      let source = hosts.(Rng.int rng n) in
      let dests0 =
        Rng.sample_without_replacement rng n 3
        |> List.map (fun i -> hosts.(i))
        |> List.filter (fun d -> d <> source)
      in
      match dests0 with
      | [] -> true
      | dests0 ->
          let dist = Graph.bfs_dist g source in
          let bound_ok dests t =
            match
              Peel_check.Check_tree.symmetric_lower_bound f ~source ~dests
            with
            | None -> true
            | Some opt -> (
                match Layer_peel.farthest_layer g ~source ~dests with
                | None -> false
                | Some far ->
                    let factor = max 1 (min far (List.length dests)) in
                    Tree.cost t <= factor * max 1 opt)
          in
          let tree_tors t =
            List.filter
              (fun v -> (Graph.node g v).Graph.kind = Graph.Tor)
              (Tree.members t)
            |> List.sort compare
          in
          let oracle_tors dests =
            Peel.Dataplane.deliver_exact f
              (Peel.Dataplane.exact_entry f ~group:0 ~members:(source :: dests))
          in
          let cur = ref (expect_tree (Layer_peel.build g ~source ~dests:dests0)) in
          let dests = ref dests0 in
          let ok = ref true in
          for _ = 1 to 6 do
            let members = source :: !dests in
            let free = List.filter (fun h -> not (List.mem h members))
                (Array.to_list hosts)
            in
            let delta, next =
              let grow =
                (free <> [] && List.length !dests <= 1)
                || (free <> [] && Rng.bool rng)
              in
              if grow then
                let d = List.nth free (Rng.int rng (List.length free)) in
                (Layer_peel.Add d, d :: !dests)
              else
                let victim =
                  List.nth !dests (Rng.int rng (List.length !dests))
                in
                (Layer_peel.Remove victim,
                 List.filter (fun d -> d <> victim) !dests)
            in
            if next <> [] then begin
              let accepted =
                match
                  Layer_peel.splice ~dist g ~prev:!cur ~source ~dests:next
                    ~delta
                with
                | Some t
                  when Tree.validate g t ~dests:next = Ok ()
                       && bound_ok next t ->
                    t
                | _ -> expect_tree (Layer_peel.build g ~source ~dests:next)
              in
              let scratch = expect_tree (Layer_peel.build g ~source ~dests:next) in
              let oracle = oracle_tors next in
              ok :=
                !ok
                && Tree.validate g accepted ~dests:next = Ok ()
                && tree_tors accepted = oracle
                && tree_tors scratch = oracle
                && bound_ok next accepted;
              cur := accepted;
              dests := next
            end
          done;
          !ok)

(* ------------------------------------------------------------------ *)
(* Closed-form Lemma 2.1 bound and the path-only splice                *)
(* ------------------------------------------------------------------ *)

module Splice_ref = Peel_test_support.Splice_ref

let bound_fabrics =
  [|
    (fun () -> Fabric.fat_tree ~k:4 ());
    (fun () -> Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:2 ());
    (fun () -> Fabric.leaf_spine ~spines:3 ~leaves:5 ~hosts_per_leaf:3 ());
    (fun () -> Fabric.rail ~rails:4 ~groups:2 ~servers_per_group:2 ~spines:2 ());
    (fun () -> Fabric.of_zoo (Zoo.vl2 ~da:4 ~di:4 ()));
    (fun () -> Fabric.of_zoo (Zoo.abfattree ~hosts_per_tor:2 ~k:4 ()));
  |]

let link_states g = Array.map (fun l -> l.Graph.up) (Graph.links g)

(* Property: the closed-form bound equals the cost of the Lemma 2.1
   tree built on an intact twin of the fabric, with or without failed
   links on the checked one, and reading it leaves every link state as
   it was.  Destination lists may repeat members and hold the source. *)
let prop_bound_closed_form =
  QCheck.Test.make
    ~name:"symmetric_lower_bound equals the Lemma 2.1 tree cost" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let mk = bound_fabrics.(Rng.int rng (Array.length bound_fabrics)) in
      let f = mk () and twin = mk () in
      if Rng.bool rng then
        ignore
          (Fabric.fail_random f ~rng ~tier:`All ~fraction:0.1
             ~ensure_connected:false ());
      let g = Fabric.graph f in
      let before = link_states g in
      let eps = Fabric.endpoints f in
      let n = Array.length eps in
      let source = eps.(Rng.int rng n) in
      let dests = List.init (Rng.int rng 14) (fun _ -> eps.(Rng.int rng n)) in
      let got = Peel_check.Check_tree.symmetric_lower_bound f ~source ~dests in
      let want =
        match Symmetric.build twin ~source ~dests with
        | t -> Some (Tree.cost t)
        | exception Invalid_argument _ -> None
      in
      got = want && link_states g = before)

let test_bound_rejects_non_endpoint () =
  let f = Fabric.fat_tree ~k:4 () in
  let h = Fabric.hosts f in
  let tor = (Fabric.tors f).(0) in
  Alcotest.(check (option int)) "switch destination" None
    (Peel_check.Check_tree.symmetric_lower_bound f ~source:h.(0) ~dests:[ tor ]);
  Alcotest.(check (option int)) "switch source" None
    (Peel_check.Check_tree.symmetric_lower_bound f ~source:tor ~dests:[ h.(0) ]);
  Alcotest.(check (option int)) "empty group" (Some 0)
    (Peel_check.Check_tree.symmetric_lower_bound f ~source:h.(0) ~dests:[ h.(0) ])

(* Every edge and every member's child list, in order. *)
let tree_shape t =
  (Tree.edges t, List.map (fun v -> (v, Tree.children t v)) (Tree.members t))

let same_result a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> tree_shape a = tree_shape b
  | Some _, None | None, Some _ -> false

(* Property: random join/leave sequences through the path-only splice
   give exactly the whole-tree reference's trees — with and without
   [salt], on failed fabrics, with a cached, absent or stale [dist],
   and with destination lists unsorted or holding the source.  A [None]
   falls back to a full peel, as the service does. *)
let prop_splice_matches_reference =
  QCheck.Test.make ~name:"splice equals the whole-tree reference" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let f =
        match Rng.int rng 3 with
        | 0 -> Fabric.fat_tree ~k:4 ()
        | 1 -> Fabric.fat_tree ~k:4 ~hosts_per_tor:2 ~gpus_per_host:2 ()
        | _ -> Fabric.leaf_spine ~spines:3 ~leaves:6 ~hosts_per_leaf:2 ()
      in
      let g = Fabric.graph f in
      let salt = if Rng.bool rng then Some (Rng.int rng 1000) else None in
      if Rng.bool rng then
        ignore (Fabric.fail_random f ~rng ~tier:`All ~fraction:0.1 ());
      let eps = Fabric.endpoints f in
      let n = Array.length eps in
      let source = eps.(Rng.int rng n) in
      let dist = Graph.bfs_dist g source in
      (* Links failing after the BFS leave [dist] stale. *)
      if Rng.int rng 4 = 0 then
        ignore
          (Fabric.fail_random f ~rng ~tier:`All ~fraction:0.1
             ~ensure_connected:false ());
      let members =
        ref
          (Rng.sample_without_replacement rng n 4
          |> List.map (fun i -> eps.(i))
          |> List.filter (fun d -> d <> source)
          |> List.sort compare)
      in
      let ok = ref true in
      let cur = ref (Layer_peel.build ?salt g ~source ~dests:!members) in
      for _ = 1 to 12 do
        match !cur with
        | None -> ()
        | Some prev ->
            let free =
              List.filter
                (fun e -> e <> source && not (List.mem e !members))
                (Array.to_list eps)
            in
            let delta, next =
              if !members = [] || (free <> [] && Rng.bool rng) then
                let d = List.nth free (Rng.int rng (List.length free)) in
                (Layer_peel.Add d, List.sort compare (d :: !members))
              else
                let d = List.nth !members (Rng.int rng (List.length !members)) in
                (Layer_peel.Remove d, List.filter (fun m -> m <> d) !members)
            in
            let dests = if Rng.bool rng then next else List.rev (source :: next) in
            let dist = if Rng.bool rng then Some dist else None in
            let got = Layer_peel.splice ?salt ?dist g ~prev ~source ~dests ~delta in
            let want = Splice_ref.splice ?salt ?dist g ~prev ~source ~dests ~delta in
            if not (same_result got want) then ok := false;
            members := next;
            cur :=
              (match got with
              | Some t -> Some t
              | None -> Layer_peel.build ?salt g ~source ~dests:next)
      done;
      !ok)

(* A [prev] with a dead branch (a leaf outside the destinations and the
   delta's endpoint) breaks splice's precondition: splice returns
   [None] where the reference would have pruned the branch. *)
let test_splice_dead_branch_is_none () =
  let f = Fabric.fat_tree ~k:4 () in
  let g = Fabric.graph f in
  let h = Fabric.hosts f in
  let source = h.(0) in
  let a = h.(2) and b = h.(5) and c = h.(9) and x = h.(13) in
  let with_x = expect_tree (Layer_peel.build g ~source ~dests:[ a; b; x ]) in
  List.iter
    (fun (name, dests, delta) ->
      Alcotest.(check bool)
        (name ^ ": splice declines") true
        (Layer_peel.splice g ~prev:with_x ~source ~dests ~delta = None);
      Alcotest.(check bool)
        (name ^ ": reference prunes") true
        (match Splice_ref.splice g ~prev:with_x ~source ~dests ~delta with
        | Some t -> not (Tree.mem t x)
        | None -> false))
    [ ("add", [ a; b; c ], Layer_peel.Add c); ("remove", [ a ], Layer_peel.Remove b) ];
  Alcotest.(check bool) "remove of a non-member declines" true
    (Layer_peel.splice g ~prev:with_x ~source ~dests:[ a; b ]
       ~delta:(Layer_peel.Remove c)
    = None);
  (* The same deltas on a tree without the dead branch go through. *)
  let clean = expect_tree (Layer_peel.build g ~source ~dests:[ a; b ]) in
  Alcotest.(check bool) "clean add" true
    (same_result
       (Layer_peel.splice g ~prev:clean ~source ~dests:[ a; b; c ]
          ~delta:(Layer_peel.Add c))
       (Splice_ref.splice g ~prev:clean ~source ~dests:[ a; b; c ]
          ~delta:(Layer_peel.Add c)))

let test_tree_graft_and_cut () =
  let f = Fabric.leaf_spine ~spines:2 ~leaves:3 ~hosts_per_leaf:3 () in
  let g = Fabric.graph f in
  let h = Fabric.hosts f in
  let source = h.(0) in
  let t = expect_tree (Layer_peel.build g ~source ~dests:[ h.(2); h.(8) ]) in
  let leaf = Fabric.attach_tor f h.(8) in
  let lid p c = Option.get (Graph.link_between g p c) in
  (* Graft a member below a ToR that already has a larger-id child. *)
  let t' = Tree.graft g t [ (h.(6), (leaf, lid leaf h.(6))) ] in
  Alcotest.(check (list (pair int int)))
    "children stay sorted"
    [ (h.(6), lid leaf h.(6)); (h.(8), lid leaf h.(8)) ]
    (Tree.children t' leaf);
  Alcotest.check_raises "wrong link"
    (Invalid_argument "Tree.graft: link does not run parent->node") (fun () ->
      ignore (Tree.graft g t [ (h.(7), (leaf, lid leaf h.(6))) ]));
  Alcotest.check_raises "parent outside the tree"
    (Invalid_argument "Tree.graft: parent not in the tree") (fun () ->
      let other = Fabric.attach_tor f h.(4) in
      ignore (Tree.graft g t [ (h.(4), (other, lid other h.(4))) ]));
  (* Cutting the only member below a ToR removes the ToR and the spine
     above it; a kept ancestor stops the walk. *)
  let cut = Tree.cut t h.(8) ~keep:(fun _ -> false) in
  Alcotest.(check (list int)) "cut to the source rack"
    (List.sort compare [ source; h.(2); Fabric.attach_tor f source ])
    (Tree.members cut);
  let kept = Tree.cut t h.(8) ~keep:(fun v -> v = leaf) in
  Alcotest.(check bool) "kept ancestor stays" true (Tree.mem kept leaf);
  Alcotest.(check int) "kept ancestor is a leaf" (Tree.leaf_count t) (Tree.leaf_count kept);
  Alcotest.(check bool) "inner node is not cut" true
    (Tree.cut t leaf ~keep:(fun _ -> false) == t)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "peel_steiner"
    [
      ( "tree",
        [
          Alcotest.test_case "of_parents basic" `Quick test_tree_of_parents_basic;
          Alcotest.test_case "children" `Quick test_tree_children;
          Alcotest.test_case "rejects wrong link" `Quick test_tree_rejects_wrong_link;
          Alcotest.test_case "rejects orphan chain" `Quick test_tree_rejects_orphan_chain;
          Alcotest.test_case "rejects duplicate" `Quick test_tree_rejects_duplicate;
          Alcotest.test_case "validate down link" `Quick test_tree_validate_down_link;
          Alcotest.test_case "validate missing dest" `Quick test_tree_validate_missing_dest;
          Alcotest.test_case "graft and cut" `Quick test_tree_graft_and_cut;
        ] );
      ( "exact",
        [
          Alcotest.test_case "two terminals" `Quick test_exact_two_terminals_is_distance;
          Alcotest.test_case "star" `Quick test_exact_star;
          Alcotest.test_case "trivial" `Quick test_exact_trivial;
          Alcotest.test_case "disconnected" `Quick test_exact_disconnected;
          Alcotest.test_case "too many terminals" `Quick test_exact_too_many_terminals;
          Alcotest.test_case "steiner point helps" `Quick test_exact_steiner_point_helps;
        ] );
      ( "symmetric",
        [
          Alcotest.test_case "leaf-spine = exact" `Quick test_symmetric_leaf_spine_matches_exact;
          Alcotest.test_case "fat-tree = exact" `Quick test_symmetric_fat_tree_matches_exact;
          Alcotest.test_case "same-host gpus" `Quick test_symmetric_same_host_gpus;
          Alcotest.test_case "cross-pod gpu" `Quick test_symmetric_cross_pod_gpu;
          Alcotest.test_case "source in dests" `Quick test_symmetric_source_in_dests_ignored;
          Alcotest.test_case "broadcast cost formula" `Quick test_symmetric_broadcast_cost_formula;
          qt prop_bound_closed_form;
          Alcotest.test_case "bound rejects non-endpoints" `Quick
            test_bound_rejects_non_endpoint;
        ] );
      ( "layer_peel",
        [
          Alcotest.test_case "optimal in sym leaf-spine" `Quick
            test_peel_symmetric_equals_optimal_leaf_spine;
          Alcotest.test_case "optimal in sym fat-tree" `Quick
            test_peel_symmetric_equals_optimal_fat_tree;
          Alcotest.test_case "unreachable dest" `Quick test_peel_unreachable_dest;
          Alcotest.test_case "farthest layer" `Quick test_peel_farthest_layer;
          Alcotest.test_case "routes around failures" `Quick test_peel_paper_example_shape;
          Alcotest.test_case "deterministic" `Quick test_peel_deterministic;
          qt prop_peel_asymmetric;
          qt prop_peel_fat_tree_failures;
          qt prop_peel_symmetric_optimal;
          qt prop_peel_differential_min_bound;
          qt prop_peel_symmetric_optimal_fat_tree;
          qt prop_repeel_valid_and_splice;
          qt prop_repeel_identity_without_failures;
          qt prop_splice_differential;
          qt prop_splice_matches_reference;
          Alcotest.test_case "splice dead branch is None" `Quick
            test_splice_dead_branch_is_none;
        ] );
    ]
