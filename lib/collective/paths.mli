(** Endpoint-to-endpoint unicast paths with a global cache.

    Sibling GPUs talk over NVLink through the server's NVSwitch; all
    other pairs take the deterministic shortest fabric path.  Paths are
    cached per (fabric, src, dst) — ring and tree schedules revisit the
    same consecutive-id pairs across thousands of collectives.

    A path walk needs the source's hop distances.  They are not a BFS
    from the source: they are derived from the BFSs of the source's
    up-neighbours ({!Graph.dist_via_neighbours}), which are cached per
    neighbour node.  Endpoints share neighbours (a GPU's are its
    NVSwitch and its ToR, a host's its ToR), so the cache holds at most
    one array per distinct endpoint neighbour, never one per source:
    sixteen 512-GPU broadcasts (PEEL and binary tree) on a k=16
    fat-tree run about 390 BFSs instead of about 2,400.  The derived distances equal the source's own BFS
    at every node, so every path (and every ECMP pick) is the one a
    per-source BFS would give. *)

open Peel_topology

type t

val create : ?ecmp:bool -> Fabric.t -> t
(** [ecmp] (default true) hash-selects among equal-cost paths per flow;
    [false] models a fabric that always picks the deterministic
    lowest-id path — the funneling ablation of E12. *)

val links : t -> int -> int -> int list
(** Directed link ids from one endpoint to another.  Raises
    [Invalid_argument] if disconnected. *)

val invalidate : t -> unit
(** Drop the cache (after failing/restoring links). *)
