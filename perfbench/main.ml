(* The benchmark's entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints a host record, a report of every figure the run measured,
   and as its last line one JSON object with the BENCHMARK.json metrics
   of the mode: the end-to-end metrics when [--trace 0], the per-layer
   metrics when [--trace 1].  The traced run also writes its spans and
   per-layer self times to perfbench/out/.  NOTES.md explains the
   workloads and the metrics. *)

open Harness

let workloads =
  [
    ("serve-ramp", (fun ~seed ~seconds -> Serve.run Serve.ramp ~seed ~seconds),
     fun ~seed -> Serve.traced Serve.ramp ~seed);
    ("serve-churn", (fun ~seed ~seconds -> Serve.run Serve.churn ~seed ~seconds),
     fun ~seed -> Serve.traced Serve.churn ~seed);
    ("sim-dcqcn", Sim.Dcqcn.run, Sim.Dcqcn.traced);
    ("sim-sharded", Sim.Sharded.run, Sim.traced_sharded);
  ]

(* Every per-layer metric of BENCHMARK.json, in its order, as (name,
   unit).  A traced run reports each of them; a layer its workload does
   not exercise reads 0. *)
let per_layer () =
  let fail msg = failwith ("BENCHMARK.json: " ^ msg) in
  let doc =
    match Json.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> fail e
  in
  match Option.bind (Json.member "per_layer" doc) Json.get_arr with
  | None -> fail "no per_layer list"
  | Some ms ->
      List.map
        (fun m ->
          match
            ( Option.bind (Json.member "name" m) Json.get_str,
              Option.bind (Json.member "unit" m) Json.get_str )
          with
          | Some name, Some unit -> (name, unit)
          | _ -> fail "per_layer entry without name or unit")
        ms

(* The traced run's figures over the full per-layer list; a figure the
   list does not name, or names with another unit, is an error. *)
let complete listed ms =
  List.iter
    (fun m ->
      match List.assoc_opt m.m_name listed with
      | Some u when u = m.m_unit -> ()
      | _ -> failwith ("per-layer metric not in BENCHMARK.json: " ^ m.m_name))
    ms;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> m.m_name = name) ms with
      | Some m -> m
      | None -> metric name unit 0.0)
    listed

let write_trace ~workload ~seed (r : result) =
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
  let doc =
    Json.Obj
      [
        ("workload", Json.str workload);
        ("seed", Json.int seed);
        ("host", host ());
        ("metrics", metrics_json r.metrics);
        ("trace", Span.to_json ~workload);
      ]
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string doc));
  path

let usage =
  "usage: main.exe --workload (serve-ramp|serve-churn|sim-dcqcn|sim-sharded) --seed N \
   --seconds S --trace (0|1)"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run, traced =
    match List.find_opt (fun (n, _, _) -> n = !workload) workloads with
    | Some (_, run, traced) -> (run, traced)
    | None ->
        prerr_endline usage;
        exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  ignore (Lazy.force host_start);
  let r =
    if !trace = 1 then begin
      let listed = per_layer () in
      let r = traced ~seed:!seed in
      let r = { r with metrics = complete listed r.metrics } in
      Printf.printf "trace %s\n" (write_trace ~workload:!workload ~seed:!seed r);
      r
    end
    else run ~seed:!seed ~seconds:!seconds
  in
  Printf.printf "host %s\n" (Json.to_string (host ()));
  if r.report <> [] then Printf.printf "report %s\n" (Json.to_string (metrics_json r.report));
  Printf.printf "%s\n%!"
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool r.correct);
            ("attempted", Json.int r.attempted);
            ("failed", Json.int r.failed);
            ("metrics", metrics_json r.metrics);
          ]))
