(** Optimal multicast tree in a failure-free (symmetric) Clos.

    Implements Lemma 2.1 of the paper: in a symmetric fabric the core
    tier collapses into a logical super-node, so the minimum-cost
    multicast tree is the unique layered tree through one (arbitrary)
    spine/core, built in [O(|D|)] time.  For a fat-tree the analogous
    construction routes through one aggregation switch per involved pod
    and a single core switch; edges are only added for tiers the
    destination set actually needs (same-ToR, same-pod and cross-pod
    destinations each stop at the lowest sufficient tier).

    Endpoints may be GPUs or hosts; either way each endpoint hangs
    directly off its ToR (GPUs through their dedicated NIC), which is
    where in-network multicast replicates the last copy. *)

open Peel_topology

val build : Fabric.t -> source:int -> dests:int list -> Tree.t
(** Raises [Invalid_argument] if a required link is down (the fabric is
    not symmetric) or if [source]/[dests] are not endpoints.  The source
    is removed from [dests] if present. *)

val cost_lower_bound : Fabric.t -> source:int -> dests:int list -> int
(** The bandwidth-optimal link count for the group — the cost of the
    tree [build] returns on the failure-free fabric — in closed form
    from the destination list, in [O(|D| log |D|)] without touching
    the graph or its link states.  With [D] the distinct destinations
    other than the source and [R] the distinct destination ToRs other
    than the source's, the count is [0] when [D] is empty and otherwise
    - [|D| + 1]: one edge per endpoint, plus source -> ToR;
    - [+ 1 + |R|] when [R] is non-empty: the source ToR up to one
      aggregation/spine switch, plus one edge down into each rack;
    - [+ 1 + P] on a fat-tree whose destinations span [P > 0] pods
      other than the source's: one aggregation -> core edge, plus one
      edge into each such pod's aggregation switch.
    Raises [Invalid_argument] when [source] or a destination is not an
    endpoint, or on a zoo fabric when [R] is non-empty (no closed-form
    optimum beyond the source rack there). *)
