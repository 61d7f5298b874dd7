(* Shared machinery of the benchmark: a monotonic clock, the
   timed-repetition loop, the span recorder of the traced run, the host
   record and the result line. *)

module Json = Peel_util.Json

let now_ns () = Monotonic_clock.now ()
let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let peak_heap_mw () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words /. 1e6

let median xs = (Peel_util.Stats.summarize xs).Peel_util.Stats.p50

let ratio num den = if den = 0.0 then 0.0 else num /. den
let iratio num den = ratio (float_of_int num) (float_of_int den)

(* ---------------- set-up and timed phases ---------------- *)

type rep = { r_events : int; r_wall_s : float; r_words : float }

(* The timed phase of an end-to-end run.  Repetition [i] runs on inputs
   of its own, [setup i], derived from the seed, so a run averages over
   many inputs as well as over host noise.  Before each repetition its
   inputs are built back to back for 50 ms (at least once), each build
   timed; set-ups last from microseconds to tens of
   milliseconds, and the median over every build of the run is its
   set-up time.  Each repetition then starts from a fully collected
   heap.  [run] returns the events it processed; [after] sees its result
   outside the timed phase (the correctness checks) and drops it, so
   repetitions do not pile up on the heap.  Repetitions continue until
   they have measured [seconds] of wall time between them and at least
   [min_reps] have run.  Returns the median set-up time, the peak heap
   over the first [min_reps] repetitions (in Mwords) and the
   repetitions in order. *)
let timed_reps ~seconds ~min_reps ~setup ~run ~after () =
  let setups = ref [] in
  let build i =
    let t_end = Int64.add (now_ns ()) 50_000_000L in
    let rec go () =
      let x, dt = timed (fun () -> setup i) in
      setups := dt :: !setups;
      if Int64.compare (now_ns ()) t_end >= 0 then x else go ()
    in
    go ()
  in
  let peak = ref 0.0 in
  let rec go acc i measured =
    let input = build i in
    Gc.full_major ();
    let w0 = minor_words () in
    let (events, out), wall = timed (fun () -> run input) in
    let words = minor_words () -. w0 in
    after i out;
    if i + 1 = min_reps then peak := peak_heap_mw ();
    let acc = { r_events = events; r_wall_s = wall; r_words = words } :: acc in
    let measured = measured +. wall in
    if i + 1 >= min_reps && measured >= seconds then List.rev acc else go acc (i + 1) measured
  in
  let reps = go [] 0 0.0 in
  (median !setups, !peak, reps)

(* The first [n] elements of a list. *)
let rec take n = function x :: xs when n > 0 -> x :: take (n - 1) xs | _ -> []

let events_per_s reps =
  median (List.map (fun r -> float_of_int r.r_events /. r.r_wall_s) reps)

(* Allocation over the first [n] repetitions, whose inputs every run
   has, so the figure depends only on the seed. *)
let words_per_event n reps =
  let reps = take n reps in
  let words = List.fold_left (fun a r -> a +. r.r_words) 0.0 reps in
  let events = List.fold_left (fun a r -> a + r.r_events) 0 reps in
  ratio words (float_of_int events)

(* The generator of repetition [i]'s inputs: the [i+1]-th split of the
   seed's generator. *)
let input_rng ~seed i =
  let rng = Peel_util.Rng.create seed in
  let r = ref (Peel_util.Rng.split rng) in
  for _ = 1 to i do
    r := Peel_util.Rng.split rng
  done;
  !r

let guarded f = match f () with out -> Ok out | exception e -> Error e

(* ---------------- spans (traced run only) ---------------- *)

module Span = struct
  type t = {
    id : int;
    name : string;
    parent : int;  (* -1 for a root span *)
    t_start : int64;
    mutable t_end : int64;
  }

  let recorded : t list ref = ref []
  let open_ids : int list ref = ref []
  let next_id = ref 0

  let with_ name f =
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    let s = { id; name; parent; t_start = now_ns (); t_end = 0L } in
    open_ids := id :: !open_ids;
    Fun.protect
      ~finally:(fun () ->
        s.t_end <- now_ns ();
        open_ids := List.tl !open_ids;
        recorded := s :: !recorded)
      f

  let dur_ns s = Int64.to_float (Int64.sub s.t_end s.t_start)

  (* Per span name: calls, total ns and self ns, where a span's self
     time is its duration minus the time its child spans cover.  Child
     spans of one parent never overlap (the benchmark is sequential
     around them), so that covered time is the sum of their
     durations. *)
  let layers () =
    let spans = !recorded in
    let child_ns = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          let c = Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0.0 in
          Hashtbl.replace child_ns s.parent (c +. dur_ns s))
      spans;
    let by_name = Hashtbl.create 64 in
    List.iter
      (fun s ->
        let calls, total, self =
          Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0.0, 0.0)
        in
        let d = dur_ns s in
        let covered = Option.value (Hashtbl.find_opt child_ns s.id) ~default:0.0 in
        Hashtbl.replace by_name s.name (calls + 1, total +. d, self +. d -. covered))
      spans;
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
    |> List.sort compare

  (* Lookups into a [layers ()] summary. *)
  let total_s ls name =
    match List.assoc_opt name ls with Some (_, t, _) -> t *. 1e-9 | None -> 0.0

  let ns_per_call ls name =
    match List.assoc_opt name ls with
    | Some (c, t, _) when c > 0 -> t /. float_of_int c
    | _ -> 0.0

  let to_json ~workload =
    let origin =
      List.fold_left (fun m s -> if Int64.compare s.t_start m < 0 then s.t_start else m)
        Int64.max_int !recorded
    in
    let rel t = Json.num (Int64.to_float (Int64.sub t origin)) in
    Json.Obj
      [
        ( "layers",
          Json.Arr
            (List.map
               (fun (name, (calls, total, self)) ->
                 Json.Obj
                   [
                     ("name", Json.str name);
                     ("calls", Json.int calls);
                     ("total_ns", Json.num total);
                     ("self_ns", Json.num self);
                   ])
               (layers ())) );
        ( "spans",
          Json.Arr
            (List.rev_map
               (fun s ->
                 Json.Obj
                   [
                     ("id", Json.int s.id);
                     ("name", Json.str s.name);
                     ("parent", Json.int s.parent);
                     ("workload", Json.str workload);
                     ("start_ns", rel s.t_start);
                     ("end_ns", rel s.t_end);
                   ])
               !recorded) );
      ]
end

(* ---------------- host record ---------------- *)

let loadavg () =
  match In_channel.with_open_text "/proc/loadavg" In_channel.input_line with
  | Some line -> (
      match String.split_on_char ' ' line with
      | a :: b :: c :: _ -> (
          match (float_of_string_opt a, float_of_string_opt b, float_of_string_opt c) with
          | Some a, Some b, Some c -> Json.Arr [ Json.num a; Json.num b; Json.num c ]
          | _ -> Json.Null)
      | _ -> Json.Null)
  | None -> Json.Null
  | exception Sys_error _ -> Json.Null

let host_start = lazy (loadavg ())

let host () =
  Json.Obj
    [
      ("nproc", Json.int (Domain.recommended_domain_count ()));
      ("ocaml", Json.str Sys.ocaml_version);
      ("loadavg_start", Lazy.force host_start);
      ("loadavg_end", loadavg ());
    ]

(* ---------------- results ---------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (* the BENCHMARK.json metrics of this mode *)
  report : metric list;   (* every figure of the run, for people *)
}

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m ->
         (m.m_name, Json.Obj [ ("value", Json.num m.m_value); ("unit", Json.str m.m_unit) ]))
       ms)

(* ---------------- correctness bookkeeping ---------------- *)

(* Operations attempted and failed over a run, and a witness of each
   input's result (its fingerprint, or its completion times): an input
   run twice must reproduce its witness. *)
type 'w tally = {
  mutable attempted : int;
  mutable failed : int;
  witnesses : (int, 'w) Hashtbl.t;
}

let tally () = { attempted = 0; failed = 0; witnesses = Hashtbl.create 16 }

let witness t i w =
  match Hashtbl.find_opt t.witnesses i with
  | None -> Hashtbl.add t.witnesses i w
  | Some w0 -> if w0 <> w then t.failed <- t.failed + 1

let result (t : _ tally) ~metrics ~report : result =
  {
    correct = t.failed = 0 && Hashtbl.length t.witnesses > 0;
    attempted = t.attempted;
    failed = t.failed;
    metrics;
    report;
  }
