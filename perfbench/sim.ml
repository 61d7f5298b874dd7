(* The two simulator workloads: the sequential plan-then-simulate
   pipeline under DCQCN, and the flattened collectives on the sharded
   conservative engine. *)

open Peel_topology
open Peel_workload
open Harness
module Scheme = Peel_collective.Scheme
module Runner = Peel_collective.Runner
module Broadcast = Peel_collective.Broadcast
module Par = Peel_collective.Par
module Paths = Peel_collective.Paths
module Soa = Peel_sim.Soa
module Shard = Peel_sim.Shard
module Trace = Peel_sim.Trace
module Check_sim = Peel_check.Check_sim

let mb x = x *. 1e6

let errors ds =
  List.length
    (List.filter (fun d -> d.Peel_check.Diagnostic.severity <> Peel_check.Diagnostic.Info) ds)

(* Median and p99 collective completion time, with the sample count. *)
let cct_metrics ccts =
  let s = Peel_util.Stats.summarize ccts in
  [
    metric "cct_p50_ms" "ms" (s.Peel_util.Stats.p50 *. 1e3);
    metric "cct_p99_ms" "ms" (s.Peel_util.Stats.p99 *. 1e3);
    metric "cct_samples" "count" (float_of_int s.Peel_util.Stats.count);
  ]

(* ---------------- sim-dcqcn ---------------- *)

module Dcqcn = struct
  let collectives = 1000
  let min_reps = 5

  (* E8's fat-tree: k = 8, 4 hosts per ToR, 8 GPUs per host. *)
  let setup ~seed i =
    let fabric = Fabric.fat_tree ~k:8 ~hosts_per_tor:4 ~gpus_per_host:8 () in
    let cs =
      Spec.poisson_broadcasts fabric (input_rng ~seed i) ~n:collectives ~scale:64
        ~bytes:(mb 32.) ~load:0.6 ()
    in
    (fabric, cs)

  let cc = Broadcast.Dcqcn { guard = Some Peel_sim.Dcqcn.default_guard; ecn_delay = 10e-6 }

  let simulate ?trace (fabric, cs) = Runner.run ~cc ?trace fabric Scheme.Peel cs

  (* Bytes the links carried, from per-link utilization over the
     horizon: utilization x horizon is busy seconds, x bandwidth is
     bytes. *)
  let link_bytes fabric (o : Runner.outcome) =
    let g = Fabric.graph fabric in
    let horizon = Float.max o.Runner.makespan 1e-9 in
    Array.fold_left
      (fun acc (r : Peel_sim.Telemetry.link_report) ->
        acc +. (r.Peel_sim.Telemetry.utilization *. horizon *. (Graph.link g r.link).Graph.bandwidth))
      0.0
      (Peel_sim.Telemetry.reports o.Runner.telemetry)

  let findings (o : Runner.outcome) =
    errors
      (Check_sim.check_outcome ~expected:collectives ~ccts:o.Runner.ccts
         ~makespan:o.Runner.makespan o.Runner.telemetry)

  (* Every collective must complete and the outcome lint clean; the
     result's witness is its completion times. *)
  let record t i ((fabric, _), res) =
    t.attempted <- t.attempted + collectives;
    match res with
    | Error _ ->
        t.failed <- t.failed + collectives;
        None
    | Ok (o : Runner.outcome) ->
        t.failed <- t.failed + findings o;
        witness t i o.Runner.ccts;
        Some (o.Runner.ccts, link_bytes fabric o)

  let run ~seed ~seconds =
    let t = tally () in
    let outs = ref [] in
    let setup_s, peak, reps =
      timed_reps ~seconds ~min_reps ~setup:(setup ~seed)
        ~run:(fun input ->
          let res = guarded (fun () -> simulate input) in
          ((match res with Ok o -> o.Runner.events | Error _ -> 0), (input, res)))
        ~after:(fun i out -> Option.iter (fun o -> outs := o :: !outs) (record t i out))
        ()
    in
    let fabric, _ = setup ~seed 0 in
    t.failed <-
      t.failed
      + errors (Check_sim.check_fabric fabric)
      (* 12.5 GB/s is the fat-tree's default NIC line rate. *)
      + errors (Check_sim.check_cc_params ~ecn_delay:10e-6 ~line_rate:12.5e9 ());
    (* Outcome figures over the inputs every run has. *)
    let first = take min_reps (List.rev !outs) in
    let ccts = match List.concat_map fst first with [] -> [ 0.0 ] | c -> c in
    let bytes = List.fold_left (fun a (_, b) -> a +. b) 0.0 first in
    result t
      ~metrics:
        [
          metric "setup_s" "s" setup_s;
          metric "events_per_s" "events/s" (events_per_s reps);
          metric "alloc_words_per_event" "words/event" (words_per_event min_reps reps);
          metric "peak_heap_mw" "Mwords" peak;
          metric "link_bytes_per_send" "bytes"
            (ratio bytes (float_of_int (collectives * List.length first)));
        ]
      ~report:
        (cct_metrics ccts
        @ [
          metric "failed_share" "fraction" (iratio t.failed t.attempted);
          metric "repetitions" "count" (float_of_int (List.length reps));
          metric "events_per_rep" "events"
            (float_of_int (match reps with r :: _ -> r.r_events | [] -> 0));
        ])

  (* The first input three times: untraced as a warm-up, with a
     counters-level trace (linted), and untraced again for the tracing
     overhead. *)
  let traced ~seed =
    Span.with_ "sim-dcqcn" (fun () ->
        let t = tally () in
        let plain () =
          let input = setup ~seed 0 in
          Gc.full_major ();
          let res, wall = timed (fun () -> guarded (fun () -> simulate input)) in
          ignore (record t 0 (input, res));
          wall
        in
        ignore (Span.with_ "untraced" plain);
        let input = setup ~seed 0 in
        Gc.full_major ();
        let trace = Trace.create ~level:Trace.Counters () in
        let res, run_s =
          timed (fun () ->
              Span.with_ "sim.runner.run" (fun () -> guarded (fun () -> simulate ~trace input)))
        in
        ignore (record t 0 (input, res));
        let plain_s = Span.with_ "untraced" plain in
        let _, cs = input in
        let deliveries =
          List.fold_left (fun a (c : Spec.collective) -> a + (8 * List.length c.Spec.dests)) 0 cs
        in
        t.failed <-
          t.failed + errors (Check_sim.check_trace ~expected_deliveries:deliveries trace);
        let c = Trace.counters trace in
        let events = float_of_int c.Trace.engine_events in
        let per_layer =
          [
            metric "sim.engine.events" "count" events;
            metric "sim.engine.ns_per_event" "ns/event" (ratio (run_s *. 1e9) events);
            metric "sim.engine.max_pending" "count" (float_of_int c.Trace.engine_max_pending);
            metric "sim.link.reservations" "count" (float_of_int c.Trace.reservations);
            metric "sim.dcqcn.ecn_marks" "count" (float_of_int c.Trace.ecn_marks);
            metric "sim.dcqcn.cnps" "count" (float_of_int c.Trace.cnps);
            metric "sim.dcqcn.rate_cuts" "count" (float_of_int c.Trace.rate_cuts);
            metric "sim.dcqcn.guard_holds" "count" (float_of_int c.Trace.guard_holds);
            metric "sim.dcqcn.guard_hold_ratio" "fraction" (iratio c.Trace.guard_holds c.Trace.cnps);
            metric "trace.overhead" "fraction" (ratio run_s plain_s -. 1.0);
          ]
        in
        result t ~metrics:per_layer ~report:[])
end

(* ---------------- sim-sharded ---------------- *)

module Sharded = struct
  let collectives = 16
  let min_reps = 5
  let chunks = 32

  (* The timed repetitions run on one shard, in one domain.  On 2 shards
     a repetition passes about 5,000 barriers (1,764 windows, three
     barriers each), and every barrier wakes the other domain, so its
     wall time measured how fast the host woke a sleeping CPU rather
     than the engine (NOTES.md, "Why the timed phase of sim-sharded
     runs on one shard").  The 2-shard run is kept for the correctness gate and the
     traced run. *)
  let timed_shards = 1
  let shards = 2
  let schemes = [ Scheme.Peel; Scheme.Btree ]

  (* E19's k = 16 fat-tree (4096 GPUs) with its 512-GPU, 64 MB
     broadcasts; the path cache starts empty, so path search is part of
     flattening. *)
  let setup ~seed i =
    let fabric = Fabric.fat_tree ~k:16 ~hosts_per_tor:4 ~gpus_per_host:8 () in
    let cs =
      Spec.poisson_broadcasts fabric (input_rng ~seed i) ~n:collectives ~scale:512
        ~bytes:(mb 64.) ~load:0.3 ()
    in
    let links = Soa.links_of_graph (Fabric.graph fabric) in
    (fabric, cs, links, Paths.create ~ecmp:true fabric)

  let min_chunk_bytes flows =
    Array.fold_left (fun acc (f : Soa.flow) -> Float.min acc f.Soa.f_chunk_bytes) infinity flows

  let flatten (fabric, cs, _, paths) scheme = Par.flatten fabric paths ~chunks scheme cs

  let plan ~jobs (fabric, _, links, _) flows =
    let sharding = Soa.shard fabric ~jobs ~min_bytes:(min_chunk_bytes flows) in
    Shard.plan ~links ~sharding flows

  (* Link bytes of a flattened collective: every edge of a chunk's DAG
     is one link crossing of [f_chunk_bytes]. *)
  let link_bytes flows =
    Array.fold_left
      (fun acc (f : Soa.flow) ->
        let per_dag = Array.length f.Soa.f_dags in
        let edges = ref 0 in
        for c = 0 to f.Soa.f_chunks - 1 do
          edges := !edges + Soa.dag_edges f.Soa.f_dags.(c mod per_dag)
        done;
        acc +. (float_of_int !edges *. f.Soa.f_chunk_bytes))
      0.0 flows

  (* One repetition: flatten, plan and run each scheme on [jobs]
     shards.  Returns the per-scheme flows and results. *)
  let simulate ?(audit = false) ~jobs input =
    List.map
      (fun scheme ->
        let flows = flatten input scheme in
        let r = Shard.run ~audit (plan ~jobs input flows) in
        (flows, r))
      schemes

  let events runs = List.fold_left (fun a (_, r) -> a + r.Shard.r_events) 0 runs
  let nflows = collectives * List.length schemes
  let fingerprints runs = List.map (fun (_, r) -> r.Shard.r_fingerprint) runs
  let ccts runs = List.concat_map (fun (_, r) -> Array.to_list r.Shard.r_ccts) runs

  let findings (fabric, _, _, _) runs =
    List.fold_left
      (fun acc (_, r) ->
        let telemetry =
          Peel_sim.Telemetry.of_busy (Fabric.graph fabric) ~busy:r.Shard.r_busy
            ~horizon:(Float.max r.Shard.r_makespan 1e-9)
        in
        acc + errors (Check_sim.check_shard r)
        + errors
            (Check_sim.check_outcome ~expected:collectives ~ccts:(Array.to_list r.Shard.r_ccts)
               ~makespan:r.Shard.r_makespan telemetry))
      0 runs

  (* Every collective must complete and the outcome lint clean; the
     result's witness is its delivery fingerprints. *)
  let record t i (input, res) =
    t.attempted <- t.attempted + nflows;
    match res with
    | Error _ ->
        t.failed <- t.failed + nflows;
        None
    | Ok runs ->
        t.failed <- t.failed + findings input runs;
        witness t i (fingerprints runs);
        Some (ccts runs, List.fold_left (fun a (f, _) -> a +. link_bytes f) 0.0 runs)

  let run ~seed ~seconds =
    let t = tally () in
    let outs = ref [] in
    let setup_s, peak, reps =
      timed_reps ~seconds ~min_reps ~setup:(setup ~seed)
        ~run:(fun input ->
          let res = guarded (fun () -> simulate ~jobs:timed_shards input) in
          ((match res with Ok runs -> events runs | Error _ -> 0), (input, res)))
        ~after:(fun i out -> Option.iter (fun o -> outs := o :: !outs) (record t i out))
        ()
    in
    (* SIM008 needs window evidence, which the timed repetitions do not
       collect: the first input once more, audited on [shards] shards,
       must also reproduce the delivery fingerprints of its timed
       1-shard run. *)
    let input = setup ~seed 0 in
    ignore (record t 0 (input, guarded (fun () -> simulate ~audit:true ~jobs:shards input)));
    (* Outcome figures over the inputs every run has. *)
    let first = take min_reps (List.rev !outs) in
    let ccts = match List.concat_map fst first with [] -> [ 0.0 ] | c -> c in
    let bytes = List.fold_left (fun a (_, b) -> a +. b) 0.0 first in
    result t
      ~metrics:
        [
          metric "setup_s" "s" setup_s;
          metric "events_per_s" "events/s" (events_per_s reps);
          metric "alloc_words_per_event" "words/event" (words_per_event min_reps reps);
          metric "peak_heap_mw" "Mwords" peak;
          metric "link_bytes_per_send" "bytes"
            (ratio bytes (float_of_int (nflows * List.length first)));
        ]
      ~report:
        (cct_metrics ccts
        @ [
          metric "failed_share" "fraction" (iratio t.failed t.attempted);
          metric "repetitions" "count" (float_of_int (List.length reps));
          metric "events_per_rep" "events"
            (float_of_int (match reps with r :: _ -> r.r_events | [] -> 0));
        ])
end

(* Window parallelism of audited runs: events over the critical path,
   the per-window maximum across shards summed over windows. *)
let window_parallelism runs =
  let events = ref 0 and path = ref 0 in
  List.iter
    (fun (_, r) ->
      let crit = Hashtbl.create 64 in
      Array.iter
        (fun (a : Shard.audit_record) ->
          let cur = Option.value (Hashtbl.find_opt crit a.Shard.a_window) ~default:0 in
          Hashtbl.replace crit a.Shard.a_window (max cur a.Shard.a_events))
        r.Shard.r_audit;
      events := !events + r.Shard.r_events;
      path := Hashtbl.fold (fun _ m acc -> acc + m) crit !path)
    runs;
  iratio !events !path

(* The first input three times: untraced as a warm-up; traced, with
   flatten, plan and an audited run per scheme each in its own span
   (SIM008 checks the audit) and the same flows replayed on one shard,
   whose delivery fingerprint must match; and untraced again for the
   tracing overhead. *)
let traced_sharded ~seed =
  let open Sharded in
  Span.with_ "sim-sharded" (fun () ->
      let t = tally () in
      let plain () =
        let input = setup ~seed 0 in
        Gc.full_major ();
        let res, wall = timed (fun () -> guarded (fun () -> simulate ~jobs:shards input)) in
        ignore (record t 0 (input, res));
        wall
      in
      ignore (Span.with_ "untraced" plain);
      let input = setup ~seed 0 in
      Gc.full_major ();
      let flatten_words = ref 0.0 in
      let run () =
        List.map
          (fun scheme ->
            let w0 = minor_words () in
            let flows = Span.with_ "collective.flatten" (fun () -> flatten input scheme) in
            flatten_words := !flatten_words +. (minor_words () -. w0);
            let plan = Span.with_ "sim.shard.plan" (fun () -> plan ~jobs:shards input flows) in
            let r = Span.with_ "sim.shard.run" (fun () -> Shard.run ~audit:true plan) in
            (flows, r))
          schemes
      in
      let res, traced_s = timed (fun () -> guarded run) in
      ignore (record t 0 (input, res));
      (* The same flows on one shard must deliver identically. *)
      let runs = match res with Ok runs -> runs | Error _ -> [] in
      Span.with_ "check.one_shard" (fun () ->
          List.iter
            (fun (flows, r) ->
              let r1 = Shard.run (plan ~jobs:1 input flows) in
              if r1.Shard.r_fingerprint <> r.Shard.r_fingerprint then t.failed <- t.failed + 1)
            runs);
      let plain_s = Span.with_ "untraced" plain in
      let ls = Span.layers () in
      let flatten_s = Span.total_s ls "collective.flatten"
      and plan_s = Span.total_s ls "sim.shard.plan"
      and run_s = Span.total_s ls "sim.shard.run" in
      let ev = events runs in
      let windows = List.fold_left (fun a (_, r) -> a + r.Shard.r_windows) 0 runs in
      let total = flatten_s +. plan_s +. run_s in
      let per_layer =
        [
          metric "collective.flatten.s" "s" flatten_s;
          metric "collective.flatten.words" "words" !flatten_words;
          metric "collective.flatten.flows" "count"
            (float_of_int (List.fold_left (fun a (f, _) -> a + Array.length f) 0 runs));
          metric "collective.flatten.share" "fraction" (ratio flatten_s total);
          metric "sim.shard.plan_s" "s" plan_s;
          metric "sim.shard.run_share" "fraction" (ratio run_s total);
          metric "sim.shard.run_ns_per_event" "ns/event" (ratio (run_s *. 1e9) (float_of_int ev));
          metric "sim.shard.windows" "count" (float_of_int windows);
          metric "sim.shard.events_per_window" "events/window" (iratio ev windows);
          metric "sim.shard.window_parallelism" "ratio" (window_parallelism runs);
          metric "trace.overhead" "fraction" (ratio traced_s plain_s -. 1.0);
        ]
      in
      result t ~metrics:per_layer ~report:[])
