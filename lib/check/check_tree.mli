(** Static checks over multicast trees ({!Peel_steiner.Tree}).

    Codes:
    - [TREE001] root is not the collective's source
    - [TREE002] a parent edge is out of range, runs the wrong way, or
      uses a link that is down in the graph
    - [TREE003] a destination is not spanned (or is unreachable)
    - [TREE004] the tree is not a tree: a member is unreachable from
      the root or reached twice over child edges
    - [TREE005] tree cost exceeds the Theorem 2.5 envelope
      [min(F, |D|) * OPT_sym], where [F] is the farthest hop layer and
      [OPT_sym] the symmetric-Clos lower bound (Lemma 2.1)
    - [TREE006] a replanned tree rewired a surviving binding: a member
      of the previous tree still connected to the root over up links
      was kept but given a different parent edge (or none) — the
      re-peel contract is that delivered subtrees keep their state *)

open Peel_topology

val check :
  ?fabric:Fabric.t ->
  Graph.t ->
  Peel_steiner.Tree.t ->
  source:int ->
  dests:int list ->
  Diagnostic.t list
(** Structural checks against the graph; when [fabric] is supplied the
    Theorem 2.5 cost bound is also checked against
    {!symmetric_lower_bound}. *)

val check_splice :
  ?fabric:Fabric.t ->
  Graph.t ->
  prev:Peel_steiner.Tree.t ->
  tree:Peel_steiner.Tree.t ->
  source:int ->
  dests:int list ->
  Diagnostic.t list
(** Everything {!check} verifies on the post-failure graph, plus the
    splice invariant ([TREE006]): every member of [prev]'s surviving
    prefix (reachable from the root over up links) that [tree] keeps
    must keep its exact parent edge.  Pruning a survivor that no longer
    feeds a destination is allowed; rewiring one is not. *)

val symmetric_lower_bound :
  Fabric.t -> source:int -> dests:int list -> int option
(** Lemma 2.1 optimum cost for the group on the failure-free fabric
    ({!Peel_steiner.Symmetric.cost_lower_bound}'s closed form, so the
    graph and its link states are only read, never written, and
    concurrent readers are safe); [None] when the symmetric
    construction does not apply (a zoo group spanning several racks,
    or a non-endpoint source or destination). *)
