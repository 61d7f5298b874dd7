(* The two service workloads: an open-loop event stream replayed back
   to back through [Peel_ctrl.Service.run], so the service runs
   saturated and the figure of merit is events per second at a stated
   stream length. *)

open Peel_topology
open Peel_workload
open Peel_ctrl
open Harness
module Layer_peel = Peel_steiner.Layer_peel
module Tree = Peel_steiner.Tree

type spec = {
  name : string;
  events : int;                 (* stream events per repetition *)
  fabric : unit -> Fabric.t;
  tenants : Stream.tenant list;
  capacity : int;               (* TCAM entries per switch, Evict *)
  shadow_events : int;          (* prefix replayed call by call when traced *)
  min_reps : int;               (* repetitions, hence inputs, every run has *)
}

let mb x = x *. 1e6

(* E22's two long-hold tenants: groups practically never depart, so the
   live population climbs with the stream and identical (source,
   member set) groups make the planning memo hit. *)
let ramp =
  {
    name = "serve-ramp";
    events = 200_000;
    fabric = (fun () -> Fabric.leaf_spine ~spines:4 ~leaves:8 ~hosts_per_leaf:4 ());
    tenants =
      [
        Stream.tenant ~rate:4000.0 ~scale:3 ~bytes:(mb 1.0) ~hold:1e6 ~churn:5e-4
          ~sends:5e-4 ();
        Stream.tenant ~rate:100.0 ~scale:8 ~bytes:(mb 4.0) ~hold:1e6 ~churn:5e-4
          ~sends:1e-3 ~fragmentation:0.25 ();
      ];
    capacity = 1024;
    shadow_events = 20_000;
    min_reps = 3;
  }

(* Short-hold, churn-heavy tenants on the 1024-GPU fat-tree: a few
   hundred live groups absorb a membership delta on most events, so
   splicing, bound checks, full peels, compile flushes and TCAM
   evictions do the work.  The fabric has no failed links: with 5% of
   them failed the service installs trees that the SVC001 lint rejects
   (NOTES.md). *)
let churn =
  {
    name = "serve-churn";
    events = 20_000;
    fabric = (fun () -> Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:8 ());
    tenants =
      [
        Stream.tenant ~rate:400.0 ~scale:16 ~bytes:(mb 1.0) ~hold:0.5 ~churn:80.0
          ~sends:40.0 ();
        Stream.tenant ~rate:150.0 ~scale:64 ~bytes:(mb 4.0) ~hold:0.3 ~churn:30.0
          ~sends:20.0 ~fragmentation:0.5 ();
      ];
    capacity = 64;
    shadow_events = 4_000;
    min_reps = 5;
  }

let cfg spec =
  { Service.default_config with Service.capacity = spec.capacity; admission = Service.Evict }

(* Everything repetition [i] needs before its first event: the fabric
   and the stream. *)
let setup spec ~seed i =
  let fabric = spec.fabric () in
  (fabric, Stream.create fabric (input_rng ~seed i) ~tenants:spec.tenants ())

let serve ?trace spec (fabric, stream) =
  Service.run ~cfg:(cfg spec) ~jobs:1 ?trace fabric ~events:spec.events stream

(* SVC001-004 findings over a quiescent outcome. *)
let findings out =
  Peel_check.Diagnostic.(
    List.length
      (List.filter (fun d -> d.severity <> Info) (Check_service.check_state out)))

let membership_deltas (s : Service.slo) = s.Service.joins + s.Service.leaves
let plan_samples (s : Service.slo) = s.Service.creates + membership_deltas s

(* Every outcome must consume the whole stream and lint clean; an
   event that raises fails the repetition. *)
let record t spec i = function
  | Error _ ->
      t.attempted <- t.attempted + spec.events;
      t.failed <- t.failed + 1;
      None
  | Ok (out : Service.outcome) ->
      let s = out.Service.o_slo in
      t.attempted <- t.attempted + s.Service.events;
      if s.Service.events <> spec.events then t.failed <- t.failed + 1;
      t.failed <- t.failed + findings out;
      witness t i out.Service.o_fingerprint;
      Some s

let run spec ~seed ~seconds =
  let t = tally () in
  let slos = ref [] in
  let setup_s, peak, reps =
    timed_reps ~seconds ~min_reps:spec.min_reps ~setup:(setup spec ~seed)
      ~run:(fun input -> (spec.events, guarded (fun () -> serve spec input)))
      ~after:(fun i out -> Option.iter (fun s -> slos := s :: !slos) (record t spec i out))
      ()
  in
  let all = List.rev !slos in
  (* Outcome figures over the inputs every run has. *)
  let first = take spec.min_reps all in
  let sum f = List.fold_left (fun a s -> a +. f s) 0.0 first in
  let sends = sum (fun s -> float_of_int s.Service.sends) in
  let per_rep f = match all with [] -> 0.0 | _ -> median (List.map f all) in
  result t
    ~metrics:
      [
        metric "setup_s" "s" setup_s;
        metric "events_per_s" "events/s" (events_per_s reps);
        metric "alloc_words_per_event" "words/event" (words_per_event spec.min_reps reps);
        metric "peak_heap_mw" "Mwords" peak;
        metric "link_bytes_per_send" "bytes"
          (ratio (sum (fun s -> s.Service.multicast_link_bytes +. s.Service.unicast_link_bytes)) sends);
      ]
    ~report:
      [
        metric "plan_p99_us" "us" (per_rep (fun s -> s.Service.plan_p99_s *. 1e6));
        metric "plan_samples" "count" (per_rep (fun s -> float_of_int (plan_samples s)));
        metric "multicast_share" "fraction"
          (ratio (sum (fun s -> float_of_int s.Service.multicast_chunks)) sends);
        metric "failed_share" "fraction" (iratio t.failed t.attempted);
        metric "repetitions" "count" (float_of_int (List.length reps));
        metric "events_per_rep" "events" (float_of_int spec.events);
        metric "groups_live" "count" (per_rep (fun s -> float_of_int s.Service.groups_live));
      ]

(* ---------------- traced run ---------------- *)

(* The service's planning path, call by call, over a prefix of the same
   stream: a full peel on creation, a splice on every membership delta
   (with the per-source BFS cached), the tree and Theorem 2.5 checks
   that decide whether the splice stands, a prefix plan per re-plan and
   an entry count per install batch.  Each call runs inside its own
   span; the service's own counters give how often it makes them. *)
type shadow_group = {
  source : int;
  mutable members : int list;
  mutable tree : Tree.t;
  dist : int array;
}

let shadow spec ~seed =
  let fabric, stream = setup spec ~seed 0 in
  let g = Fabric.graph fabric in
  let c = cfg spec in
  let dists = Hashtbl.create 64 in
  let dist_of source =
    match Hashtbl.find_opt dists source with
    | Some d -> d
    | None ->
        let d = Graph.bfs_dist g source in
        Hashtbl.add dists source d;
        d
  in
  let groups = Hashtbl.create 1024 in
  let batch = Hashtbl.create 16 in
  let unplanned = ref 0 in
  let dests_of grp = List.filter (fun m -> m <> grp.source) grp.members in
  let build ~source ~dests =
    match
      Span.with_ "steiner.layer_peel.build" (fun () ->
          Layer_peel.build ?salt:c.Service.salt g ~source ~dests)
    with
    | Some t -> t
    | None -> failwith "shadow replay: destinations unreachable"
  in
  let plan gid grp =
    let dests = dests_of grp in
    let p =
      Span.with_ "core.plan.build" (fun () ->
          Peel.Plan.build ?budget:c.Service.budget fabric ~source:grp.source ~dests)
    in
    Hashtbl.replace batch gid p;
    if Hashtbl.length batch >= c.Service.batch then begin
      let items = Hashtbl.fold (fun gid p acc -> (gid, p) :: acc) batch [] in
      ignore
        (Span.with_ "compile.count_entries" (fun () ->
             Peel_compile.count_entries fabric (List.sort compare items)));
      Hashtbl.reset batch
    end
  in
  (* The service's acceptance test for a spliced tree. *)
  let accept grp ~dests t =
    Span.with_ "steiner.tree.validate" (fun () ->
        Result.is_ok (Tree.validate g t ~dests))
    &&
    match
      Span.with_ "check.bound" (fun () ->
          Peel_check.Check_tree.symmetric_lower_bound fabric ~source:grp.source ~dests)
    with
    | None -> true
    | Some opt ->
        let far = List.fold_left (fun m d -> max m grp.dist.(d)) 0 dests in
        Tree.cost t <= max 1 (min far (List.length dests)) * max 1 opt
  in
  let replan gid delta =
    match Hashtbl.find_opt groups gid with
    | None -> incr unplanned
    | Some grp ->
        (match delta with
        | Layer_peel.Add e -> grp.members <- List.sort_uniq compare (e :: grp.members)
        | Layer_peel.Remove e -> grp.members <- List.filter (fun m -> m <> e) grp.members);
        let dests = dests_of grp in
        let spliced =
          Span.with_ "steiner.layer_peel.splice" (fun () ->
              Layer_peel.splice ?salt:c.Service.salt ~dist:grp.dist g ~prev:grp.tree
                ~source:grp.source ~dests ~delta)
        in
        grp.tree <-
          (match spliced with
          | Some t when accept grp ~dests t -> t
          | _ -> build ~source:grp.source ~dests);
        plan gid grp
  in
  for _ = 1 to spec.shadow_events do
    match (Stream.next stream).Stream.ev_kind with
    | Stream.Create grp ->
        let source = grp.Spec.g_source in
        let s =
          {
            source;
            members = List.sort_uniq compare grp.Spec.g_members;
            tree = build ~source ~dests:grp.Spec.g_dests;
            dist = dist_of source;
          }
        in
        Hashtbl.replace groups grp.Spec.g_id s;
        plan grp.Spec.g_id s
    | Stream.Join { gid; endpoint } -> replan gid (Layer_peel.Add endpoint)
    | Stream.Leave { gid; endpoint } -> replan gid (Layer_peel.Remove endpoint)
    | Stream.Send _ -> ()
    | Stream.Depart { gid } ->
        Hashtbl.remove groups gid;
        Hashtbl.remove batch gid
  done;
  !unplanned

let traced spec ~seed =
  let events = float_of_int spec.events in
  Span.with_ spec.name (fun () ->
      (* A first, untraced repetition grows the heap, so that the
         stream drain and the traced repetition start warm. *)
      let t = tally () in
      let plain () =
        let input = setup spec ~seed 0 in
        Gc.full_major ();
        let out, wall = timed (fun () -> guarded (fun () -> serve spec input)) in
        ignore (record t spec 0 out);
        wall
      in
      ignore (Span.with_ "untraced" plain);
      (* The stream alone, drained from the same seed. *)
      let _, stream = setup spec ~seed 0 in
      Gc.full_major ();
      let w0 = minor_words () in
      let (), stream_s =
        timed (fun () ->
            Span.with_ "workload.stream" (fun () ->
                for _ = 1 to spec.events do
                  ignore (Stream.next stream)
                done))
      in
      let stream_words = minor_words () -. w0 in
      let input = setup spec ~seed 0 in
      Gc.full_major ();
      let trace = Peel_sim.Trace.create ~level:Peel_sim.Trace.Counters () in
      let w0 = minor_words () in
      let out, svc_s =
        timed (fun () ->
            Span.with_ "ctrl.service.run" (fun () -> guarded (fun () -> serve ~trace spec input)))
      in
      let svc_words = minor_words () -. w0 in
      (* An untraced repetition right after, for the tracing overhead. *)
      let plain_s = Span.with_ "untraced" plain in
      let (), check_s = timed (fun () -> Span.with_ "check.svc" (fun () -> ignore (record t spec 0 out))) in
      (match Span.with_ "shadow" (fun () -> guarded (fun () -> shadow spec ~seed)) with
      | Ok unplanned -> t.failed <- t.failed + unplanned
      | Error _ -> t.failed <- t.failed + 1);
      let s = match out with Ok o -> Some o.Service.o_slo | Error _ -> None in
      let get f = match s with Some s -> float_of_int (f s) | None -> 0.0 in
      let ls = Span.layers () in
      let per_layer =
        [
          metric "workload.stream.ns_per_event" "ns/event" (stream_s *. 1e9 /. events);
          metric "workload.stream.words_per_event" "words/event" (stream_words /. events);
          metric "workload.stream.share" "fraction" (ratio stream_s svc_s);
          metric "workload.membership_delta_share" "fraction"
            (get membership_deltas /. events);
          metric "ctrl.service.self_ns_per_event" "ns/event"
            ((svc_s -. stream_s) *. 1e9 /. events);
          metric "ctrl.service.self_words_per_event" "words/event"
            ((svc_words -. stream_words) /. events);
          metric "ctrl.service.max_backlog" "count" (get (fun s -> s.Service.max_backlog));
          metric "ctrl.service.groups_live" "count" (get (fun s -> s.Service.groups_live));
          metric "ctrl.tcam.installs" "count" (get (fun s -> s.Service.installs));
          metric "ctrl.tcam.evictions" "count" (get (fun s -> s.Service.evictions));
          metric "ctrl.tcam.eviction_ratio" "fraction"
            (ratio (get (fun s -> s.Service.evictions)) (get (fun s -> s.Service.installs)));
          metric "steiner.memo.hit_ratio" "fraction"
            (ratio (get (fun s -> s.Service.cache_hits))
               (get (fun s -> s.Service.cache_hits + s.Service.cache_misses)));
          metric "steiner.memo.lookups" "count"
            (get (fun s -> s.Service.cache_hits + s.Service.cache_misses));
          metric "steiner.layer_peel.build_ns" "ns"
            (Span.ns_per_call ls "steiner.layer_peel.build");
          metric "steiner.layer_peel.build_calls" "count"
            (get (fun s -> s.Service.full_repeels));
          metric "steiner.layer_peel.splice_ns" "ns"
            (Span.ns_per_call ls "steiner.layer_peel.splice");
          metric "steiner.layer_peel.splice_calls" "count" (get membership_deltas);
          metric "steiner.layer_peel.splice_fallback_ratio" "fraction"
            (ratio (get (fun s -> s.Service.splice_fallbacks)) (get membership_deltas));
          metric "steiner.tree.validate_ns" "ns" (Span.ns_per_call ls "steiner.tree.validate");
          metric "check.bound_ns" "ns" (Span.ns_per_call ls "check.bound");
          metric "core.plan.build_ns" "ns" (Span.ns_per_call ls "core.plan.build");
          metric "compile.batches" "count" (get (fun s -> s.Service.batches));
          metric "compile.ns_per_batch" "ns" (Span.ns_per_call ls "compile.count_entries");
          metric "compile.entries" "count" (get (fun s -> s.Service.compiled_entries));
          metric "check.svc_ns" "ns" (check_s *. 1e9);
          metric "trace.overhead" "fraction" (ratio svc_s plain_s -. 1.0);
        ]
      in
      result t ~metrics:per_layer ~report:[])
