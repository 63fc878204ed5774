(* Benchmark harness: regenerates every figure and table of the
   paper's evaluation (section 5 plus the section 3 comparisons), and
   runs the host-side perf sections.

   Usage:
     dune exec bench/main.exe                 # everything, full scale
     dune exec bench/main.exe -- --quick      # reduced workloads
     dune exec bench/main.exe -- fig5 tab2    # selected experiments
     dune exec bench/main.exe -- --jobs 4     # figure runs over 4 domains
     dune exec bench/main.exe -- --hotpaths [--json BENCH_hotpaths.json]
                                              # dispatch/eviction hot paths
     dune exec bench/main.exe -- --crashsweep [--json BENCH_crashsweep.json]
                                              # delta snapshots + work pool
     dune exec bench/main.exe -- --loadgen [--json BENCH_loadgen.json]
                                              # load engine + dir-scale gates
     dune exec bench/main.exe -- --corrupt [--json BENCH_corrupt.json]
                                              # checksum overhead + gates
     dune exec bench/main.exe -- --volume [--json BENCH_volume.json]
                                              # compact volume image
     dune exec bench/main.exe -- --fsck [--json BENCH_fsck.json]
                                              # recovery time vs volume size
     dune exec bench/main.exe -- --list       # available ids

   Every perf section returns a list of {bench, layer, metric, value,
   unit, gate} records: [report] prints them, writes them as one JSON
   list with --json, then checks every gate and exits 1 if one fails. *)

let available =
  [ "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "tab1"; "tab2"; "tab3"; "fig6";
    "chains-dealloc"; "chains-cb"; "crash"; "soft-ablate"; "journal"; "nvram"; "aging" ]

let usage () =
  print_string
    "usage: main.exe [options] [experiment ids]\n\
     \n\
     With no ids, every experiment runs in paper order.\n\
     \n\
     options:\n\
     \  --quick         reduced workload sizes (smoke scale)\n\
     \  --jobs N        worker domains for figure runs, --hotpaths and\n\
     \                  --crashsweep (default 1 = serial; 0 = one per\n\
     \                  core); results and output are byte-identical at\n\
     \                  any value\n\
     \  --list          print available experiment ids\n\
     \  --hotpaths      driver-dispatch / cache-eviction hot paths; gate:\n\
     \                  every driver-burst-* runs >= 20000 events/s\n\
     \  --crashsweep    crash-state materialization (delta log vs deep\n\
     \                  copy) and full-sweep scaling across the pool;\n\
     \                  gate: the jobs=1 sweep allocates <= 380k words\n\
     \                  per verified state\n\
     \  --loadgen       load-engine steady state (zero-major gate) and\n\
     \                  directory-scale lookups (10k entries gated\n\
     \                  within 2x of 100)\n\
     \  --corrupt       checksum overhead: driver burst and loadgen\n\
     \                  steady loops with the digest region off vs on;\n\
     \                  gates: checksummed steady loop still runs zero\n\
     \                  major collections, burst overhead within 2x\n\
     \  --volume        compact volume image: mkfs at 1M-inode scale\n\
     \                  (minor words/inode gate), resident bytes/inode\n\
     \                  gate, and the load engine on the big volume\n\
     \  --fsck          recovery time: fsck check, repair and remount of a\n\
     \                  crashed soft-updates volume at 64 MB, 256 MB and\n\
     \                  1 GB (--quick: 64 MB only); gates: the crashed\n\
     \                  image checks clean, repair converges, check <= 3\n\
     \                  us per live inode at 1 GB\n\
     \  --json PATH     write results JSON: the experiment tables (the\n\
     \                  document EXPERIMENTS.md specifies), or a perf\n\
     \                  section's records, a list of {bench, layer,\n\
     \                  metric, value, unit, gate} objects\n\
     \  --assert-shapes PATH\n\
     \                  parse an experiments JSON written by --json and\n\
     \                  check the calibrated shape claims (exit 1 on any\n\
     \                  failure); runs no experiments itself\n\
     \  --help          this text\n\
     \n\
     A perf section exits 1 if any gate fails, after writing --json.\n"

(* --- bench records ------------------------------------------------------ *)

(* Both bounds are inclusive. *)
type gate = Max of float | Min of float

type record = {
  bench : string;
  layer : string;
  metric : string;
  value : float;
  unit : string;
  gate : gate option;
}

let record ?gate bench layer metric unit value =
  { bench; layer; metric; value; unit; gate }

let count ?gate bench layer metric n =
  record ?gate bench layer metric "count" (float_of_int n)

(* A section's knobs, under the bench "<section>-quick" or
   "<section>-full": the record that names a file's scale. *)
let harness section ~quick knobs =
  let bench = section ^ if quick then "-quick" else "-full" in
  List.map (fun (metric, n) -> count bench "harness" metric n) knobs

let value_of records bench metric =
  (List.find (fun r -> r.bench = bench && r.metric = metric) records).value

let passes r =
  match r.gate with
  | None -> true
  | Some (Max b) -> r.value <= b
  | Some (Min b) -> r.value >= b

let json_of_record r =
  let open Su_obs.Json in
  Obj
    [ ("bench", Str r.bench);
      ("layer", Str r.layer);
      ("metric", Str r.metric);
      ("value", Float r.value);
      ("unit", Str r.unit);
      ( "gate",
        match r.gate with
        | None -> Null
        | Some (Max b) -> Obj [ ("max", Float b) ]
        | Some (Min b) -> Obj [ ("min", Float b) ] )
    ]

let write_json path doc =
  try
    let oc = open_out path in
    output_string oc (Su_obs.Json.to_string_pretty doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "# wrote %s\n" path
  with Sys_error e ->
    Printf.eprintf "cannot write %s: %s\n" path e;
    exit 2

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 1000. then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.4g" v

let fmt_gate = function
  | None -> ""
  | Some (Max b) -> Printf.sprintf "  (gate <= %g)" b
  | Some (Min b) -> Printf.sprintf "  (gate >= %g)" b

(* Print every record, write them to [json_path], then check every
   gate: exit 1 if any fails, with the file already written. *)
let report ~json_path records =
  List.iter
    (fun r ->
      Printf.printf "%-34s %-9s %-28s %14s %s%s\n" r.bench r.layer r.metric
        (fmt_value r.value) r.unit (fmt_gate r.gate))
    records;
  Option.iter
    (fun path ->
      write_json path (Su_obs.Json.List (List.map json_of_record records)))
    json_path;
  let failed = List.filter (fun r -> not (passes r)) records in
  List.iter
    (fun r ->
      Printf.eprintf "FAIL: %s/%s/%s = %s %s%s\n" r.bench r.layer r.metric
        (fmt_value r.value) r.unit (fmt_gate r.gate))
    failed;
  if failed <> [] then exit 1

(* --- timed runs --------------------------------------------------------- *)

(* [ops] operations in [wall] host seconds, with the minor-heap words
   per op and the major collections over the same bracket. *)
type run = { ops : int; wall : float; words_per_op : float; majors : int }

(* Bracket [f] with [Gc.quick_stat] after a full major; [f] returns its
   op count and a value of its own. *)
let measure f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let ops, x = f () in
  let wall = Unix.gettimeofday () -. t0 in
  let s1 = Gc.quick_stat () in
  ( { ops;
      wall;
      words_per_op =
        (s1.Gc.minor_words -. s0.Gc.minor_words) /. float_of_int (max 1 ops);
      majors = s1.Gc.major_collections - s0.Gc.major_collections
    },
    x )

(* The fastest of [reps] runs: wall times of milliseconds to seconds
   are at the mercy of scheduler noise, and the minimum is the stable
   estimate of what the code itself costs. Allocation counts are
   deterministic per run, so they come from the same run. *)
let best_of reps bench =
  let best = ref (bench ()) in
  for _ = 2 to reps do
    let r = bench () in
    if (fst r).wall < (fst !best).wall then best := r
  done;
  !best

(* A run as records named after its op ([per] "event", "op", ...),
   plus the bench's own (metric, unit, value) [extra]s; [gates] maps a
   metric to its gate. *)
let run_records ?(gates = []) ~per bench layer (r, extra) =
  let rec_ metric unit v =
    record ?gate:(List.assoc_opt metric gates) bench layer metric unit v
  in
  [ rec_ (per ^ "s") "count" (float_of_int r.ops);
    rec_ "wall_s" "s" r.wall;
    rec_ (per ^ "s_per_sec") "1/s"
      (if r.wall > 0.0 then float_of_int r.ops /. r.wall else 0.0);
    rec_ ("minor_words_per_" ^ per) "words" r.words_per_op;
    rec_ "major_collections" "count" (float_of_int r.majors)
  ]
  @ List.map (fun (metric, unit, v) -> rec_ metric unit v) extra

(* Best-of-[reps] records for every (bench, layer, gates, run) in
   [benches], fanned over [jobs] domains and merged by index, so the
   records come out in list order at any [jobs]. *)
let run_benches ?jobs ~reps ~per benches =
  let benches = Array.of_list benches in
  let runs =
    Su_util.Pool.map ?jobs (Array.length benches) (fun i ->
        let _, _, _, bench = benches.(i) in
        best_of reps bench)
  in
  List.concat
    (List.mapi
       (fun i (name, layer, gates, _) ->
         run_records ~gates ~per name layer runs.(i))
       (Array.to_list benches))

(* --- hot-path micro-benchmarks ----------------------------------------- *)

(* Stress the two structures the paper's burst scenarios lean on: the
   driver dispatch queue under thousands of simultaneously pending
   requests (No Order / Soft Updates delayed-write bursts) and the
   buffer-cache eviction path. Gate: every driver burst runs at least
   [driver_eps_floor] events/s, deliberately generous (real numbers are
   20-50x higher) so throttled CI machines pass while genuine perf-path
   regressions still trip it. *)

let hotpath_scale quick = if quick then 2_000 else 10_000
let driver_eps_floor = 20_000.

let mk_disk_driver ?(checksums = false) ~mode ~policy () =
  let e = Su_sim.Engine.create () in
  let d =
    Su_disk.Disk.create ~engine:e ~params:Su_disk.Disk_params.hp_c2447
      ~nfrags:(1 lsl 20) ~checksums ()
  in
  let drv =
    Su_driver.Driver.create ~engine:e ~disk:d
      { Su_driver.Driver.default_config with mode; policy }
  in
  (e, drv)

let wpayload n = Array.make n Su_fstypes.Types.Empty

(* [n] writes queued up-front at pseudo-random positions: every disk
   completion must pick the next request from an [n]-deep queue.

   Each hotpath bench is staged: calling it builds the world (engine,
   disk image, driver, cache) and returns the run thunk, so the timed
   region covers only the submit + drain hot paths — not the one-off
   8 MB disk-image allocation, which would otherwise be ~10% of the
   wall at current throughput. *)
let bench_driver_burst ~mode ?(policy = Su_driver.Driver.Clook)
    ?(flag_every = 0) ?(read_every = 0) ?(chain = false) ?(checksums = false)
    n () =
  let e, drv = mk_disk_driver ~checksums ~mode ~policy () in
  (* Workload generation is prepare work too: the RNG's int64 mixing
     is measurably more expensive than a dispatch-index lookup, and it
     is not the system under test. *)
  let rng = Su_util.Rng.create 42 in
  let lbns = Array.make n 0 in
  for i = 0 to n - 1 do
    lbns.(i) <- 64 + (Su_util.Rng.int rng 65_000 * 8)
  done;
  let payload = Some (wpayload 1) in
  fun () ->
  let done_ = ref 0 in
  let on_complete _ = incr done_ in
  let prev = ref (-1) in
  for i = 1 to n do
    let lbn = lbns.(i - 1) in
    let kind =
      if read_every > 0 && i mod read_every = 0 then Su_driver.Request.Read
      else Su_driver.Request.Write
    in
    let flagged = flag_every > 0 && i mod flag_every = 0 in
    let deps = if chain && !prev >= 0 then [ !prev ] else [] in
    let is_write =
      match kind with Su_driver.Request.Write -> true | Su_driver.Request.Read -> false
    in
    let id =
      Su_driver.Driver.submit drv ~kind ~lbn ~nfrags:1 ~flagged ~deps
        ?payload:(if is_write then payload else None)
        ~on_complete ()
    in
    if is_write then prev := id
  done;
  (* The drain alone — the steady-state event loop with no
     submissions: engine dispatch, disk completion, driver re-dispatch,
     trace accounting. Its words per request back the "near-zero
     allocation per event" budget in HACKING.md. *)
  let w0 = Gc.minor_words () in
  Su_sim.Engine.run e;
  let drain_words = (Gc.minor_words () -. w0) /. float_of_int n in
  assert (!done_ = n);
  (n, [ ("drain_words_per_request", "words", drain_words) ])

(* [n] buffer allocations through a small cache: every allocation past
   capacity must select and evict the LRU clean victim. *)
let bench_cache_evict n () =
  let e, drv = mk_disk_driver ~mode:Su_driver.Ordering.Unordered
      ~policy:Su_driver.Driver.Clook () in
  let bc =
    Su_cache.Bcache.create ~engine:e ~driver:drv
      { Su_cache.Bcache.default_config with capacity_frags = n / 2 }
  in
  fun () ->
  ignore
    (Su_sim.Proc.spawn e (fun () ->
         for i = 0 to n - 1 do
           let b =
             Su_cache.Bcache.getblk bc ~lbn:(i * 2) ~nfrags:1 ~init:(fun () ->
                 Su_cache.Buf.Cdata [| Some Su_fstypes.Types.Zeroed |])
           in
           Su_cache.Bcache.release bc b
         done));
  Su_sim.Engine.run e;
  (n, [])

(* Dirty [n] buffers, then flush them all: sync_all walks the dirty
   set and the driver drains an [n]-deep unordered write burst. *)
let bench_cache_sync_all n () =
  let e, drv = mk_disk_driver ~mode:Su_driver.Ordering.Unordered
      ~policy:Su_driver.Driver.Clook () in
  let bc =
    Su_cache.Bcache.create ~engine:e ~driver:drv
      { Su_cache.Bcache.default_config with capacity_frags = 2 * n }
  in
  fun () ->
  ignore
    (Su_sim.Proc.spawn e (fun () ->
         for i = 0 to n - 1 do
           let b =
             Su_cache.Bcache.getblk bc ~lbn:(i * 2) ~nfrags:1 ~init:(fun () ->
                 Su_cache.Buf.Cdata [| Some Su_fstypes.Types.Zeroed |])
           in
           Su_cache.Bcache.bdwrite bc b;
           Su_cache.Bcache.release bc b
         done;
         Su_cache.Bcache.sync_all bc));
  Su_sim.Engine.run e;
  (n, [])

(* A staged bench measured: build its world, then time the run. *)
let staged bench () = measure (bench ())

let run_hotpaths ~quick ~jobs =
  let n = hotpath_scale quick in
  let reps = if quick then 2 else 7 in
  let burst name bench =
    (name, "driver", [ ("events_per_sec", Min driver_eps_floor) ], staged bench)
  in
  let open Su_driver in
  harness "hotpaths" ~quick [ ("requests", n); ("reps", reps) ]
  @ run_benches ~jobs ~reps ~per:"event"
      [ burst "driver-burst-unordered-clook"
          (bench_driver_burst ~mode:Ordering.Unordered n);
        burst "driver-burst-unordered-fcfs"
          (bench_driver_burst ~mode:Ordering.Unordered ~policy:Driver.Fcfs n);
        burst "driver-burst-part-nr"
          (bench_driver_burst
             ~mode:(Ordering.Flag { sem = Ordering.Part; nr = true })
             ~flag_every:16 ~read_every:8 n);
        burst "driver-burst-chains"
          (bench_driver_burst ~mode:(Ordering.Chains { nr = true }) ~chain:true n);
        ("cache-evict-clean", "cache", [], staged (bench_cache_evict n));
        ("cache-sync-all", "cache", [], staged (bench_cache_sync_all n))
      ]

(* --- crash-state materialization + sweep scaling ----------------------- *)

(* Three measurements per built-in workload:

   1. materialization throughput: producing the durable image at every
      crash state (each write boundary + every torn prefix), comparing
      the pre-delta approach — a full [Array.map Types.copy_cell] deep
      copy per state — against the write-delta log, which seeks one
      reusable base image in O(cells touched) per step. This isolates
      exactly the cost the delta log removes.

   2. full-sweep wall clock: Explorer.sweep (fsck + repair + remount +
      continuation per state) at --jobs 1 and --jobs N, states/sec
      each, pinning the work pool's scaling.

   3. allocation per verified state: words allocated by the jobs=1
      sweep (minor words plus words allocated straight into the major
      heap, i.e. minor + major - promoted), over its states. The sweep
      is deterministic, so the count repeats exactly. Gate: at most
      [crashsweep_gate_words_per_state] over all workloads, a bound that
      catches per-world set-up going back to O(disk). *)

module Explorer = Su_check.Explorer
module Delta = Su_check.Delta

let crashsweep_cfg = Su_check.Campaign.compact_cfg Su_fs.Fs.Soft_updates

let crashsweep_gate_words_per_state = 380_000.

(* A full major first, so the counters have taken in the young heap's
   fill and every major slice's allocation: read bare, they lag by up
   to a minor heap. *)
let allocated_words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* The pre-delta materialization: advance a private base incrementally,
   then take a full deep-copy snapshot per state (plus the torn-prefix
   overlay), exactly as the seed explorer did. *)
let materialize_deepcopy (r : Explorer.recording) states =
  let open Su_fstypes in
  let cur = Array.map Types.copy_cell r.Explorer.rec_initial in
  let pos = ref 0 in
  let live = ref 0 in
  Array.iter
    (fun (k, torn) ->
      while !pos < k do
        let d = r.Explorer.rec_deltas.(!pos) in
        Array.iteri
          (fun i c -> cur.(d.Delta.d_lbn + i) <- Types.copy_cell c)
          d.Delta.d_post;
        incr pos
      done;
      let img = Array.map Types.copy_cell cur in
      (match torn with
       | Some applied ->
         let d = r.Explorer.rec_deltas.(k) in
         for i = 0 to applied - 1 do
           img.(d.Delta.d_lbn + i) <- Types.copy_cell d.Delta.d_post.(i)
         done
       | None -> ());
      ignore (Sys.opaque_identity img);
      incr live)
    states;
  !live

(* The delta-log materialization: one reusable base, O(cells touched)
   per seek; torn prefixes are applied and immediately undone. *)
let materialize_delta (r : Explorer.recording) states =
  let cur = Delta.cursor ~initial:r.Explorer.rec_initial ~log:r.Explorer.rec_deltas in
  let base = Delta.image cur in
  let live = ref 0 in
  Array.iter
    (fun (k, torn) ->
      Delta.seek cur k;
      (match torn with
       | Some applied ->
         let d = (Delta.log cur).(k) in
         Array.blit d.Delta.d_post 0 base d.Delta.d_lbn applied;
         (* the state is live here; restore boundary [k] for the next seek *)
         Array.blit d.Delta.d_pre 0 base d.Delta.d_lbn applied
       | None -> ());
      ignore (Sys.opaque_identity base);
      incr live)
    states;
  !live

(* Repeat [f] over the state list until ~0.25s of wall clock has
   accumulated, so per-state times in the nanosecond range still
   measure cleanly. *)
let time_states f states =
  let t0 = Unix.gettimeofday () in
  let total = ref 0 in
  let reps = ref 0 in
  while Unix.gettimeofday () -. t0 < 0.25 || !reps = 0 do
    total := !total + f states;
    incr reps
  done;
  let wall = Unix.gettimeofday () -. t0 in
  float_of_int !total /. wall

let run_crashsweep ~quick ~jobs =
  let jobs_n = Su_util.Pool.resolve_jobs jobs in
  let max_boundaries = if quick then Some 30 else None in
  let per_workload =
    List.map
      (fun wl ->
        let r = Explorer.record ~cfg:crashsweep_cfg wl in
        let states = Explorer.crash_states ?max_boundaries r in
        let deep_sps = time_states (materialize_deepcopy r) states in
        let delta_sps = time_states (materialize_delta r) states in
        let sweep_at jobs =
          let w0 = allocated_words () in
          let t0 = Unix.gettimeofday () in
          let s =
            Explorer.sweep_recording ~jobs ?max_boundaries ~cfg:crashsweep_cfg
              ~workload:wl.Explorer.wl_name r
          in
          let wall = Unix.gettimeofday () -. t0 in
          (s, wall, float_of_int s.Explorer.s_states /. wall,
           allocated_words () -. w0)
        in
        let s1, wall1, sps1, words1 = sweep_at 1 in
        let _, walln, spsn, _ = sweep_at jobs_n in
        let bench =
          String.concat "-"
            ("crashsweep" :: wl.Explorer.wl_name
             :: String.split_on_char ' '
                  (String.lowercase_ascii
                     (Su_fs.Fs.scheme_kind_name s1.Explorer.s_scheme)))
        in
        let r = record bench in
        ( words1,
          s1.Explorer.s_states,
          [ count bench "explorer" "writes" s1.Explorer.s_writes;
            count bench "explorer" "states" (Array.length states);
            r "delta" "deepcopy_states_per_sec" "1/s" deep_sps;
            r "delta" "delta_states_per_sec" "1/s" delta_sps;
            r "delta" "speedup" "x" (delta_sps /. deep_sps);
            r "pool" "jobs1_wall_s" "s" wall1;
            r "pool" "jobs1_states_per_sec" "1/s" sps1;
            r "pool" "jobsN_wall_s" "s" walln;
            r "pool" "jobsN_states_per_sec" "1/s" spsn;
            r "gc" "jobs1_alloc_words_per_state" "words"
              (words1 /. float_of_int s1.Explorer.s_states)
          ] ))
      Explorer.builtin_workloads
  in
  let words = List.fold_left (fun a (w, _, _) -> a +. w) 0. per_workload in
  let nstates = List.fold_left (fun a (_, n, _) -> a + n) 0 per_workload in
  harness "crashsweep" ~quick [ ("jobs", jobs_n) ]
  @ List.concat_map (fun (_, _, records) -> records) per_workload
  @ [ record ~gate:(Max crashsweep_gate_words_per_state) "crashsweep" "gc"
        "alloc_words_per_state" "words" (words /. float_of_int nstates)
    ]

(* --- loadgen steady state + directory-scale hot paths ------------------ *)

(* Three measured claims:

   - loadgen-steady: the open-loop multi-tenant engine at a scale
     whose steady-state loop must complete with ZERO major collections
     (pooled per-client scratch as a measured number, the same way
     --hotpaths pins words/event). Ops/sec is host throughput of the
     whole engine, simulated clients included.

   - dirscale-100 vs dirscale-10k: a fixed count of lookups plus
     create/unlink churn against one directory pre-filled with 100 vs
     10_000 entries, directory index on. The gate: the 10k rate must
     be within 2x of the 100-entry rate — per-op cost no longer scales
     with directory size. dirscale-10k-scan (index off, fewer ops) is
     recorded for contrast and not gated. *)

let bench_dirscale ~index ~files nops () =
  let cfg =
    { (Su_fs.Fs.config ~scheme:Su_fs.Fs.Soft_updates ()) with
      Su_fs.Fs.dir_index = index
    }
  in
  let w = Su_fs.Fs.make cfg in
  let st = w.Su_fs.Fs.st in
  let result = ref None in
  let controller () =
    Su_fs.Fsops.mkdir st "/big";
    let names = Array.init files (fun k -> Printf.sprintf "/big/f%06d" k) in
    Array.iter (fun n -> ignore (Su_fs.Fsops.create st n)) names;
    Su_fs.Fsops.sync st;
    result :=
      Some
        (measure (fun () ->
             for i = 0 to nops - 1 do
               match i land 3 with
               | 0 | 1 -> ignore (Su_fs.Fsops.stat st names.(i * 7919 mod files))
               | 2 -> ignore (Su_fs.Fsops.create st "/big/xchurn")
               | _ -> Su_fs.Fsops.unlink st "/big/xchurn"
             done;
             (nops, [])));
    Su_fs.Fs.stop w;
    Su_driver.Driver.quiesce w.Su_fs.Fs.driver;
    Su_sim.Engine.stop w.Su_fs.Fs.engine
  in
  ignore (Su_sim.Proc.spawn w.Su_fs.Fs.engine ~name:"dirscale" controller);
  Su_sim.Engine.run w.Su_fs.Fs.engine;
  Option.get !result

(* Loadgen's own steady-window measurement as a run. *)
let loadgen_run (r : Su_workload.Loadgen.report) =
  let ops = r.Su_workload.Loadgen.executed in
  { ops;
    wall = r.Su_workload.Loadgen.host_wall_s;
    words_per_op = r.Su_workload.Loadgen.minor_words /. float_of_int (max 1 ops);
    majors = r.Su_workload.Loadgen.major_collections
  }

let bench_loadgen_steady ~checksums ~quick () =
  let base = Su_workload.Loadgen.config ~scheme:Su_fs.Fs.Soft_updates () in
  let cfg =
    { base with
      Su_workload.Loadgen.clients = (if quick then 80 else 200);
      rate = 0.5;
      duration = (if quick then 10.0 else 16.0);
      warmup = (if quick then 2.0 else 4.0);
      files_per_client = 6;
      shape = Su_workload.Loadgen.Rampup
    }
  in
  let cfg =
    { cfg with
      Su_workload.Loadgen.fs_cfg =
        { cfg.Su_workload.Loadgen.fs_cfg with Su_fs.Fs.checksums }
    }
  in
  (loadgen_run (Su_workload.Loadgen.run cfg), [])

(* the steady loop must not allocate long-lived garbage *)
let zero_majors = [ ("major_collections", Max 0.) ]

let run_loadgen ~quick ~jobs:_ =
  let reps = if quick then 2 else 3 in
  let nops = if quick then 800 else 4000 in
  let records =
    run_benches ~reps ~per:"op"
      [ ( "loadgen-steady", "loadgen", zero_majors,
          bench_loadgen_steady ~checksums:false ~quick );
        ("dirscale-100", "dir", [], bench_dirscale ~index:true ~files:100 nops);
        ( "dirscale-10k", "dir", [],
          bench_dirscale ~index:true ~files:10_000 nops );
        ( "dirscale-10k-scan", "dir", [],
          bench_dirscale ~index:false ~files:10_000 (nops / 8) )
      ]
  in
  let eps bench = value_of records bench "ops_per_sec" in
  harness "loadgen" ~quick [ ("reps", reps) ]
  @ records
  @ [ record ~gate:(Min 0.5) "dirscale-10k" "dir" "ops_per_sec_ratio_vs_100" "x"
        (eps "dirscale-10k" /. eps "dirscale-100")
    ]

(* --- checksum overhead ------------------------------------------------- *)

(* What turning `checksums` on costs on the two loops the perf story
   rests on: the driver write burst (every acknowledged write now folds
   its payload into the digest region) and the loadgen steady loop
   (whole-engine ops/sec with a checksummed world under every shard).
   Two gates: the checksummed steady loop must still run zero major
   collections — digest upkeep is in-place int stores, not allocation —
   and the checksummed burst must stay within 2x of the plain one. *)

let run_corrupt ~quick ~jobs:_ =
  let n = hotpath_scale quick in
  let reps = if quick then 2 else 5 in
  let records =
    run_benches ~reps ~per:"op"
      [ ( "driver-burst-plain", "driver", [],
          staged (bench_driver_burst ~mode:Su_driver.Ordering.Unordered n) );
        ( "driver-burst-csum", "driver", [],
          staged
            (bench_driver_burst ~mode:Su_driver.Ordering.Unordered
               ~checksums:true n) );
        ( "loadgen-steady-plain", "loadgen", [],
          bench_loadgen_steady ~checksums:false ~quick );
        ( "loadgen-steady-csum", "loadgen", zero_majors,
          bench_loadgen_steady ~checksums:true ~quick )
      ]
  in
  let eps bench = value_of records bench "ops_per_sec" in
  let overhead_pct layer plain csum =
    let p = eps plain and c = eps csum in
    record csum layer "overhead_pct" "%"
      (if c > 0.0 then (p /. c -. 1.0) *. 100.0 else infinity)
  in
  harness "corrupt" ~quick [ ("requests", n); ("reps", reps) ]
  @ records
  @ [ overhead_pct "driver" "driver-burst-plain" "driver-burst-csum";
      overhead_pct "loadgen" "loadgen-steady-plain" "loadgen-steady-csum";
      record ~gate:(Min 0.5) "driver-burst-csum" "driver"
        "ops_per_sec_ratio_vs_plain" "x"
        (eps "driver-burst-csum" /. eps "driver-burst-plain")
    ]

(* --- compact volume ----------------------------------------------------- *)

(* The claims behind the slab-backed image ({!Su_fstypes.Volume}):

   - volume-mkfs: formatting a paper-disk-scale volume (full: 8 GB /
     512 cylinder groups / 1,048,576 inodes on a widened HP C2447;
     quick: 1 GB / 131,072 inodes on the stock drive). Reported: wall
     seconds and minor words per inode. The gate asserts formatting
     allocates O(blocks), not O(inodes): fresh inode blocks share one
     canonical free dinode and encode straight into slabs, so mkfs
     must stay under 64 minor words per inode (one boxed dinode record
     alone costs ~22 words before its block array lands).

   - volume-resident: live major-heap bytes per inode with the
     formatted volume fully resident (measured across Fs.make between
     two full majors), next to the volume's own slab accounting
     (Disk.image_stats). Gate: <= 192 resident bytes per inode — the
     bound that makes a million-inode volume a ~100-200 MB object
     instead of an unbounded record graph.

   - loadgen-bigvol: the multi-tenant load engine running on that
     volume (full: 120,000 clients; quick: 5,000), same steady-window
     report as --loadgen. Gate: steady ops executed >= 1. Majors and
     words/op are reported, not gated: past the cache's capacity every
     fill decodes fresh records (exactly the copy_cell cost the boxed
     image paid), so eviction churn allocates proportionally to miss
     traffic at any client count. *)

let volume_geometry ~quick =
  let geom =
    if quick then Su_fstypes.Geom.v ~mb:1024 ~cg_mb:16 ~inodes_per_cg:2048 ()
    else Su_fstypes.Geom.v ~mb:8192 ~cg_mb:16 ~inodes_per_cg:2048 ()
  in
  let params =
    if
      Su_disk.Disk_params.capacity_frags Su_disk.Disk_params.hp_c2447
      >= geom.Su_fstypes.Geom.nfrags
    then Su_disk.Disk_params.hp_c2447
    else
      { Su_disk.Disk_params.hp_c2447 with
        Su_disk.Disk_params.cylinders = 17_000
      }
  in
  (geom, params)

let run_volume ~quick ~jobs:_ =
  let geom, params = volume_geometry ~quick in
  let inodes = Su_fstypes.Geom.total_inodes geom in
  let fs_cfg =
    { (Su_fs.Fs.config ~scheme:Su_fs.Fs.Soft_updates ()) with
      Su_fs.Fs.geom;
      disk_params = params;
      dir_index = true
    }
  in
  (* mkfs + residency: one build, minor words and wall bracketed
     around it, live heap compared between full majors on each side.
     mkfs leaves untouched inode blocks Empty (they materialize on
     first allocation), so the bracket also installs the entire inode
     area — the resident figure is the worst case, every inode block
     encoded, not the sparse freshly-formatted image. *)
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let mkfs, w =
    measure (fun () ->
        let w = Su_fs.Fs.make fs_cfg in
        let disk = w.Su_fs.Fs.disk in
        for c = 0 to Su_fstypes.Geom.cg_count geom - 1 do
          let first, count = Su_fstypes.Geom.cg_inode_area geom c in
          let fpb = geom.Su_fstypes.Geom.frags_per_block in
          let blk = ref first in
          while !blk < first + count do
            (match Su_disk.Disk.peek disk !blk with
             | Su_fstypes.Types.Empty ->
               Su_disk.Disk.install disk !blk
                 (Su_fstypes.Types.Meta (Su_fstypes.Types.fresh_inode_block geom));
               for i = 1 to fpb - 1 do
                 Su_disk.Disk.install disk (!blk + i) Su_fstypes.Types.Pad
               done
             | _ -> ());
            blk := !blk + fpb
          done
        done;
        (inodes, w))
  in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let st = Su_disk.Disk.image_stats w.Su_fs.Fs.disk in
  let per_inode x = float_of_int x /. float_of_int inodes in
  Su_fs.Fs.stop w;
  (* the load engine on the big volume *)
  let base = Su_workload.Loadgen.config ~scheme:Su_fs.Fs.Soft_updates () in
  let clients = if quick then 5_000 else 120_000 in
  let lg_cfg =
    { base with
      Su_workload.Loadgen.fs_cfg;
      clients;
      rate = (if quick then 0.2 else 0.02);
      duration = (if quick then 6.0 else 10.0);
      warmup = 2.0;
      files_per_client = 1
    }
  in
  let lg = loadgen_run (Su_workload.Loadgen.run lg_cfg) in
  let resident ?gate = record ?gate "volume-resident" "volume" in
  harness "volume" ~quick [ ("reps", 1) ]
  @ run_records ~gates:[ ("minor_words_per_inode", Max 64.) ] ~per:"inode"
      "volume-mkfs" "volume" (mkfs, [])
  @ [ resident ~gate:(Max 192.) "bytes_per_inode" "B"
        (per_inode ((live1 - live0) * 8));
      resident "slab_bytes_per_inode" "B"
        (per_inode st.Su_fstypes.Volume.slab_bytes);
      count "volume-resident" "volume" "inode_slabs"
        st.Su_fstypes.Volume.inode_slabs;
      count "volume-resident" "volume" "dir_slabs"
        st.Su_fstypes.Volume.dir_slabs;
      count "volume-resident" "volume" "indirect_slabs"
        st.Su_fstypes.Volume.indirect_slabs;
      count "volume-resident" "volume" "boxed" st.Su_fstypes.Volume.boxed;
      count "loadgen-bigvol" "loadgen" "clients" clients
    ]
  @ run_records ~gates:[ ("ops", Min 1.) ] ~per:"op" "loadgen-bigvol" "loadgen"
      (lg, [])

(* --- recovery time -------------------------------------------------- *)

(* Recovery wall time against volume size. Each size is a soft-updates
   volume populated by a seeded open-loop Loadgen run and crashed
   mid-flight; recovery is Fsck.check, Fsck.repair and
   Fs.mount_image, each timed (median of [reps]) on a fresh copy of the
   crashed image. Gates: the crashed image checks clean, repair
   converges to a clean report, and check takes at most 3 us per live
   inode at 1 GB. *)

let fsck_sizes ~quick = if quick then [ 64 ] else [ 64; 256; 1024 ]
let fsck_gate_mb = 1024
let fsck_gate_us_per_inode = 3.0

let run_fsck ~quick ~jobs:_ =
  let reps = if quick then 3 else 5 in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  harness "fsck" ~quick [ ("reps", reps) ]
  @ List.concat_map
      (fun mb ->
        let fs_cfg =
          { (Su_fs.Fs.config ~scheme:Su_fs.Fs.Soft_updates ()) with
            Su_fs.Fs.geom = Su_fstypes.Geom.v ~mb ();
            dir_index = true
          }
        in
        let lg_cfg =
          { (Su_workload.Loadgen.config ~scheme:Su_fs.Fs.Soft_updates ()) with
            Su_workload.Loadgen.fs_cfg;
            clients = 2 * mb;
            rate = 0.05;
            duration = 300.0;
            warmup = 0.0;
            seed = 7
          }
        in
        let crashed =
          Su_fs.Crash.crash_at (Su_workload.Loadgen.start lg_cfg) 150.0
        in
        let geom = fs_cfg.Su_fs.Fs.geom in
        let check_exposure = Su_check.Campaign.check_exposure fs_cfg in
        let runs =
          List.init reps (fun _ ->
              let image = Array.map Su_fstypes.Types.copy_cell crashed in
              Gc.full_major ();
              let t0 = Unix.gettimeofday () in
              let report = Su_fs.Fsck.check ~geom ~image ~check_exposure in
              let t1 = Unix.gettimeofday () in
              let outcome =
                Su_fs.Fsck.repair ~geom ~image ~check_exposure ()
              in
              let t2 = Unix.gettimeofday () in
              ignore (Su_fs.Fs.mount_image fs_cfg image);
              let t3 = Unix.gettimeofday () in
              (report, outcome, t1 -. t0, t2 -. t1, t3 -. t2))
        in
        let report, outcome, _, _, _ = List.hd runs in
        let inodes = report.Su_fs.Fsck.files + report.Su_fs.Fsck.dirs in
        let med f = median (List.map f runs) in
        let check_s = med (fun (_, _, c, _, _) -> c) in
        let repair_s = med (fun (_, _, _, r, _) -> r) in
        let mount_s = med (fun (_, _, _, _, m) -> m) in
        let per_inode t = t *. 1e6 /. float_of_int (max 1 inodes) in
        let bench = Printf.sprintf "fsck-%dmb" mb in
        let r ?gate = record ?gate bench in
        let check_gate =
          if mb = fsck_gate_mb then Some (Max fsck_gate_us_per_inode) else None
        in
        [ count bench "volume" "frags" geom.Su_fstypes.Geom.nfrags;
          count bench "volume" "live_inodes" inodes;
          count ~gate:(Max 0.) bench "fsck" "crash_violations"
            (List.length report.Su_fs.Fsck.violations);
          r "fsck" "check_s" "s" check_s;
          r ?gate:check_gate "fsck" "check_us_per_inode" "us" (per_inode check_s);
          r "fsck" "repair_s" "s" repair_s;
          r "fsck" "repair_us_per_inode" "us" (per_inode repair_s);
          r ~gate:(Min 1.) "fsck" "repair_converged_clean" "bool"
            (if
               outcome.Su_fs.Fsck.converged
               && Su_fs.Fsck.ok outcome.Su_fs.Fsck.final
             then 1.
             else 0.);
          r "mount" "mount_image_s" "s" mount_s
        ])
      (fsck_sizes ~quick)

(* --- main --------------------------------------------------------------- *)

(* In the order a run with several section flags picks the first. *)
let sections =
  [ ("--hotpaths", run_hotpaths);
    ("--crashsweep", run_crashsweep);
    ("--loadgen", run_loadgen);
    ("--volume", run_volume);
    ("--corrupt", run_corrupt);
    ("--fsck", run_fsck)
  ]

let flags = [ "--quick"; "--list"; "--help"; "-h" ] @ List.map fst sections
let valued = [ "--jobs"; "--json"; "--assert-shapes" ]

(* The experiment ids among [args]; exit 2 on an unknown option or an
   option missing its value. *)
let rec ids_of = function
  | [] -> []
  | opt :: rest when List.mem opt valued ->
    (match rest with
     | _ :: rest -> ids_of rest
     | [] ->
       Printf.eprintf "option %s needs a value\n" opt;
       exit 2)
  | a :: rest when List.mem a flags -> ids_of rest
  | a :: _ when String.length a > 1 && a.[0] = '-' ->
    Printf.eprintf "unknown option %S (try --help)\n" a;
    exit 2
  | id :: rest -> id :: ids_of rest

let rec value_of opt = function
  | o :: v :: _ when o = opt -> Some v
  | _ :: rest -> value_of opt rest
  | [] -> None

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let selected = ids_of args in
  let quick = List.mem "--quick" args in
  if List.mem "--help" args || List.mem "-h" args then begin
    usage ();
    exit 0
  end;
  if List.mem "--list" args then begin
    List.iter print_endline available;
    exit 0
  end;
  let json_path = value_of "--json" args in
  let jobs =
    match value_of "--jobs" args with
    | None -> 1
    | Some n ->
      (match int_of_string_opt n with
       | Some j when j >= 0 -> j
       | Some _ | None ->
         Printf.eprintf "bad --jobs value %S (want an int >= 0)\n" n;
         exit 2)
  in
  (match value_of "--assert-shapes" args with
   | None -> ()
   | Some path ->
     let doc =
       let s =
         try
           let ic = open_in_bin path in
           let s = really_input_string ic (in_channel_length ic) in
           close_in ic;
           s
         with Sys_error e ->
           Printf.eprintf "cannot read %s: %s\n" path e;
           exit 2
       in
       match Su_obs.Json.parse s with
       | Ok doc -> doc
       | Error e ->
         Printf.eprintf "%s: JSON parse error: %s\n" path e;
         exit 2
     in
     let claims = Su_experiments.Shapes.check doc in
     if claims = [] then begin
       Printf.eprintf "%s: no recognisable experiment tables to assert\n" path;
       exit 2
     end;
     let nfail =
       List.fold_left (fun n (_, ok, _) -> if ok then n else n + 1) 0 claims
     in
     List.iter
       (fun (name, ok, detail) ->
         Printf.printf "%-48s %-4s %s\n" name
           (if ok then "ok" else "FAIL")
           detail)
       claims;
     Printf.printf "# %d claims, %d failed\n" (List.length claims) nfail;
     exit (if nfail = 0 then 0 else 1));
  (match List.find_opt (fun (flag, _) -> List.mem flag args) sections with
   | None -> ()
   | Some (_, run) ->
     report ~json_path (run ~quick ~jobs);
     exit 0);
  (* Fail fast and non-zero on unknown ids, before any experiment
     burns wall clock (scripted runs used to get a stderr line and a
     zero exit). *)
  List.iter
    (fun id ->
      if not (List.mem id available) then begin
        Printf.eprintf "unknown experiment %S (try --list)\n" id;
        exit 2
      end)
    selected;
  let scale = if quick then `Quick else `Full in
  let wanted = if selected = [] then available else selected in
  let t_start = Unix.gettimeofday () in
  Printf.printf
    "# Metadata Update Performance in File Systems (Ganger & Patt, OSDI 94)\n";
  Printf.printf "# simulated reproduction - %s scale\n\n"
    (if quick then "quick" else "full");
  (* Each experiment renders its tables into a buffer inside a pool
     worker; printing happens here, in id order, so output is
     byte-identical at any --jobs value. *)
  let wanted = Array.of_list wanted in
  let rendered =
    Su_util.Pool.map ~jobs (Array.length wanted) (fun i ->
        let id = wanted.(i) in
        match List.assoc_opt id (Su_experiments.Experiments.all scale) with
        | None -> (id, None)
        | Some thunk ->
          let t0 = Unix.gettimeofday () in
          let tables = thunk () in
          let buf = Buffer.create 4096 in
          List.iter
            (fun t -> Buffer.add_string buf (Su_util.Text_table.render t))
            tables;
          (id, Some (Buffer.contents buf, tables, Unix.gettimeofday () -. t0)))
  in
  Array.iter
    (fun (id, outcome) ->
      match outcome with
      | None -> Printf.eprintf "unknown experiment %S (try --list)\n" id
      | Some (text, _, wall) ->
        print_string text;
        Printf.printf "[%s took %.1fs wall]\n\n%!" id wall)
    rendered;
  Option.iter
    (fun path ->
      let entries =
        Array.to_list rendered
        |> List.filter_map (fun (id, outcome) ->
               Option.map (fun (_, tables, wall) -> (id, wall, tables)) outcome)
      in
      write_json path
        (Su_experiments.Shapes.experiments_json
           ~scale:(if quick then "quick" else "full")
           entries))
    json_path;
  Printf.printf "# total wall time: %.1fs\n" (Unix.gettimeofday () -. t_start)
