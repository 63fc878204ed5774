(* Open-loop multi-tenant load engine.

   Spawns thousands of concurrent {!Su_sim.Proc} clients, each a
   tenant owning a namespace subtree [/t<id>], drawing operations from
   a seeded per-client mix of create/write/rename/unlink/mkdir.
   Arrivals are OPEN LOOP: every client schedules its next operation
   from the previous *scheduled* time, independent of completions, so
   a lagging client issues late operations back to back and the
   lateness lands in the measured latency (completion minus scheduled
   arrival, self-queueing included) — the tail-latency regime, not the
   closed-loop scripts of {!Runner}.

   Interarrival times come from a fixed-rate or Poisson process,
   modulated by a load shape (the Clue2 taxonomy): [fixed] starts
   every client at time zero, [rampup] staggers client starts across
   the warmup, [pausing] alternates synchronized active/quiet phases,
   [shaped] sweeps the rate through a triangle wave (a diurnal curve).
   Only operations scheduled inside the steady-state window
   [warmup, duration) are measured.

   Determinism: every random stream is derived from the seed and the
   client's global id ({!Su_util.Rng.substream}), shards are
   self-contained worlds split by client id, and per-world results
   merge by shard index with {!Su_obs.Hist.merge} — so the report is a
   pure function of the config, byte-identical at any [--jobs]. Host-
   side measurements (wall clock, GC counters) are reported separately
   and must never enter the deterministic report.

   The steady-state loop is scale-proof by construction: directory
   lookups ride the {!Su_fs.Dir_index} (enabled by {!config}),
   allocator scans ride the {!Su_fs.Freemap} bitsets, and each client
   draws paths and slots from scratch tables preallocated at setup, so
   steady state allocates only short-lived minor garbage (asserted by
   [bench/main.exe --loadgen]). *)

open Su_sim
open Su_fs
module Hist = Su_obs.Hist
module Json = Su_obs.Json
module Rng = Su_util.Rng

type shape = Fixed | Rampup | Pausing | Shaped
type arrival = Fixed_rate | Poisson
type op_class = Op_create | Op_write | Op_rename | Op_unlink | Op_mkdir

let shape_name = function
  | Fixed -> "fixed"
  | Rampup -> "rampup"
  | Pausing -> "pausing"
  | Shaped -> "shaped"

let shape_of_string = function
  | "fixed" -> Some Fixed
  | "rampup" -> Some Rampup
  | "pausing" -> Some Pausing
  | "shaped" -> Some Shaped
  | _ -> None

let all_shapes = [ Fixed; Rampup; Pausing; Shaped ]

let arrival_name = function Fixed_rate -> "fixed-rate" | Poisson -> "poisson"

let arrival_of_string = function
  | "fixed-rate" | "fixed" -> Some Fixed_rate
  | "poisson" -> Some Poisson
  | _ -> None

let nclasses = 5
let class_index = function
  | Op_create -> 0
  | Op_write -> 1
  | Op_rename -> 2
  | Op_unlink -> 3
  | Op_mkdir -> 4

let class_name = function
  | Op_create -> "create"
  | Op_write -> "write"
  | Op_rename -> "rename"
  | Op_unlink -> "unlink"
  | Op_mkdir -> "mkdir"

let class_of_index = function
  | 0 -> Op_create
  | 1 -> Op_write
  | 2 -> Op_rename
  | 3 -> Op_unlink
  | _ -> Op_mkdir

type config = {
  fs_cfg : Fs.config;
  clients : int;
  rate : float;  (* per-client operations per simulated second *)
  shape : shape;
  arrival : arrival;
  duration : float;  (* simulated seconds, from time zero *)
  warmup : float;  (* steady-state window is [warmup, duration) *)
  files_per_client : int;  (* pre-created files per tenant *)
  shards : int;  (* independent worlds, split by client id *)
  seed : int;
}

let config ?scheme () =
  {
    fs_cfg = { (Fs.config ?scheme ()) with Fs.dir_index = true };
    clients = 200;
    rate = 0.1;
    shape = Fixed;
    arrival = Poisson;
    duration = 60.0;
    warmup = 15.0;
    files_per_client = 8;
    shards = 1;
    seed = 17;
  }

let validate cfg =
  if cfg.clients < 1 then invalid_arg "Loadgen: clients must be at least 1";
  if cfg.rate <= 0.0 || not (Float.is_finite cfg.rate) then
    invalid_arg "Loadgen: rate must be positive";
  if cfg.duration <= 0.0 then invalid_arg "Loadgen: duration must be positive";
  if cfg.warmup < 0.0 || cfg.warmup >= cfg.duration then
    invalid_arg "Loadgen: warmup must lie inside the duration";
  if cfg.files_per_client < 1 then
    invalid_arg "Loadgen: files-per-client must be at least 1";
  if cfg.shards < 1 || cfg.shards > cfg.clients then
    invalid_arg "Loadgen: shards must be between 1 and the client count"

(* --- per-client state ---------------------------------------------------- *)

(* Pooled scratch, fully preallocated at setup so the steady-state
   loop allocates nothing long-lived: every path a client can ever use
   exists up front (each file slot owns two fixed names so rename
   flips between them), and slot bookkeeping is two int stacks. *)
type client = {
  rng : Rng.t;
  pname : string;  (* process name *)
  dir : string;  (* "/t<gid>" *)
  fnames : string array;  (* primary name per slot *)
  rnames : string array;  (* rename alternate per slot *)
  renamed : Bytes.t;  (* '\001' when the slot currently uses rnames *)
  live : int array;  (* slots with an existing file *)
  mutable nlive : int;
  free : int array;  (* slots without one *)
  mutable nfree : int;
  dnames : string array;  (* subdirectory pool *)
  mutable ndirs : int;
  weights : int array;  (* per-class draw weights (seeded jitter) *)
  wtotal : int;
  start : float;  (* no arrivals before this (rampup stagger) *)
  mutable t_next : float;  (* next scheduled arrival *)
}

let base_weights = [| 30; 30; 15; 15; 10 |] (* create write rename unlink mkdir *)
let subdir_pool = 4

let make_client cfg root gid =
  let rng = Rng.substream root gid in
  let dir = Printf.sprintf "/t%d" gid in
  let cap = cfg.files_per_client + 4 in
  let weights =
    Array.map (fun b -> b + Rng.int rng (1 + (b / 2))) base_weights
  in
  let start =
    match cfg.shape with
    | Rampup -> cfg.warmup *. float_of_int gid /. float_of_int cfg.clients
    | Fixed | Pausing | Shaped -> 0.0
  in
  {
    rng;
    pname = Printf.sprintf "tenant%d" gid;
    dir;
    fnames = Array.init cap (fun k -> Printf.sprintf "%s/f%d" dir k);
    rnames = Array.init cap (fun k -> Printf.sprintf "%s/r%d" dir k);
    renamed = Bytes.make cap '\000';
    live = Array.make cap 0;
    nlive = 0;
    free = Array.init cap (fun k -> cap - 1 - k);  (* pop order: 0, 1, ... *)
    nfree = cap;
    dnames = Array.init subdir_pool (fun j -> Printf.sprintf "%s/d%d" dir j);
    ndirs = 0;
    weights;
    wtotal = Array.fold_left ( + ) 0 weights;
    start;
    t_next = 0.0;
  }

let pick_class c =
  let r = Rng.int c.rng c.wtotal in
  let rec go k acc =
    let acc = acc + c.weights.(k) in
    if r < acc || k = nclasses - 1 then class_of_index k else go (k + 1) acc
  in
  go 0 0

let slot_name c slot =
  if Bytes.get c.renamed slot = '\001' then c.rnames.(slot) else c.fnames.(slot)

(* Execute one operation of (ideally) class [cls], degrading to a
   class the tenant's state admits — unlinking with no files becomes a
   create, creating with every slot full becomes a write — and return
   the class actually executed. Degradation cannot cycle: create only
   degrades when all slots are live, which is exactly when write
   cannot degrade. *)
let rec execute st c cls =
  match cls with
  | Op_create ->
    if c.nfree = 0 then execute st c Op_write
    else begin
      let slot = c.free.(c.nfree - 1) in
      c.nfree <- c.nfree - 1;
      Bytes.set c.renamed slot '\000';
      Fsops.create st c.fnames.(slot);
      c.live.(c.nlive) <- slot;
      c.nlive <- c.nlive + 1;
      Op_create
    end
  | Op_write ->
    if c.nlive = 0 then execute st c Op_create
    else begin
      let slot = c.live.(Rng.int c.rng c.nlive) in
      Fsops.write_file st (slot_name c slot)
        ~bytes:(1024 * (1 + Rng.int c.rng 4));
      Op_write
    end
  | Op_rename ->
    if c.nlive = 0 then execute st c Op_create
    else begin
      let slot = c.live.(Rng.int c.rng c.nlive) in
      let flip = Bytes.get c.renamed slot = '\001' in
      let src = if flip then c.rnames.(slot) else c.fnames.(slot) in
      let dst = if flip then c.fnames.(slot) else c.rnames.(slot) in
      Fsops.rename st ~src ~dst;
      Bytes.set c.renamed slot (if flip then '\000' else '\001');
      Op_rename
    end
  | Op_unlink ->
    if c.nlive = 0 then execute st c Op_create
    else begin
      let i = Rng.int c.rng c.nlive in
      let slot = c.live.(i) in
      Fsops.unlink st (slot_name c slot);
      c.nlive <- c.nlive - 1;
      c.live.(i) <- c.live.(c.nlive);
      c.free.(c.nfree) <- slot;
      c.nfree <- c.nfree + 1;
      Op_unlink
    end
  | Op_mkdir ->
    if c.ndirs >= subdir_pool then execute st c Op_write
    else begin
      Fsops.mkdir st c.dnames.(c.ndirs);
      c.ndirs <- c.ndirs + 1;
      Op_mkdir
    end

(* --- arrival process ----------------------------------------------------- *)

(* [shaped]: triangle wave over the run, mean 1.0 — quiet ends, a
   crest in the middle. *)
let rate_mult cfg t =
  match cfg.shape with
  | Shaped ->
    let phase = t /. cfg.duration in
    0.25 +. (1.5 *. (1.0 -. Float.abs ((2.0 *. phase) -. 1.0)))
  | Fixed | Rampup | Pausing -> 1.0

(* [pausing]: period-long active and quiet phases in lockstep across
   all clients; arrivals landing in a quiet phase slide to the start
   of the next active one (the backlog burst is the point). *)
let pause_adjust cfg t =
  match cfg.shape with
  | Pausing ->
    let p = cfg.duration /. 8.0 in
    let k = int_of_float (t /. p) in
    if k land 1 = 1 then float_of_int (k + 1) *. p else t
  | Fixed | Rampup | Shaped -> t

let next_arrival cfg c t =
  let dt =
    match cfg.arrival with
    | Fixed_rate -> 1.0 /. cfg.rate
    | Poisson -> Rng.exponential c.rng (1.0 /. cfg.rate)
  in
  pause_adjust cfg (t +. (dt /. rate_mult cfg t))

(* --- per-shard world ----------------------------------------------------- *)

type world_result = {
  w_class : Hist.t array;  (* measured latency per op class, seconds *)
  w_total : Hist.t;
  w_executed : int;  (* steady-phase ops, in or out of the window *)
  w_host_wall : float;  (* host seconds spent in the steady phase *)
  w_minor_words : float;  (* minor words allocated in the steady phase *)
  w_majors : int;  (* major collections in the steady phase *)
}

(* Split clients across shards: shard [s] owns a contiguous global-id
   span, so the union over shards is independent of the shard count's
   relation to [--jobs]. *)
let shard_span cfg s =
  let base = cfg.clients / cfg.shards and extra = cfg.clients mod cfg.shards in
  let n = base + if s < extra then 1 else 0 in
  let first = (s * base) + min s extra in
  (first, n)

(* Make shard [shard]'s world and spawn its controller without running
   the engine; the result lands in the returned cell once every client
   has finished. *)
let spawn_shard cfg ~shard =
  let first, n = shard_span cfg shard in
  let w = Fs.make cfg.fs_cfg in
  let st = w.Fs.st in
  let eng = w.Fs.engine in
  let root = Rng.create cfg.seed in
  let class_h = Array.init nclasses (fun _ -> Hist.create ()) in
  let total_h = Hist.create () in
  let executed = ref 0 in
  let result = ref None in
  (* Client time is relative to the steady-phase start: setup burns
     simulated time too, so schedules anchored at absolute zero would
     make every client start behind. [t_base] is set once setup is on
     disk. *)
  let t_base = ref 0.0 in
  let client_proc c () =
    let rec loop () =
      let t = c.t_next in
      if t < cfg.duration then begin
        let abs_t = !t_base +. t in
        let now = Engine.now eng in
        if abs_t > now then Proc.sleep eng (abs_t -. now);
        let cls = execute st c (pick_class c) in
        incr executed;
        if t >= cfg.warmup then begin
          let lat = Engine.now eng -. abs_t in
          Hist.add class_h.(class_index cls) lat;
          Hist.add total_h lat
        end;
        c.t_next <- next_arrival cfg c t;
        loop ()
      end
    in
    loop ()
  in
  let controller () =
    let clients = Array.init n (fun i -> make_client cfg root (first + i)) in
    Array.iter
      (fun c ->
        Fsops.mkdir st c.dir;
        for k = 0 to cfg.files_per_client - 1 do
          Fsops.create st c.fnames.(k);
          c.live.(c.nlive) <- k;
          c.nlive <- c.nlive + 1;
          c.nfree <- c.nfree - 1
        done)
      clients;
    Fsops.sync st;
    t_base := Engine.now eng;
    Array.iter (fun c -> c.t_next <- next_arrival cfg c c.start) clients;
    (* host-side steady-phase measurement (GC hygiene for the bench);
       the full_major fences setup garbage out of the measured phase *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let s0 = Gc.quick_stat () in
    let handles =
      Array.to_list
        (Array.map (fun c -> Proc.spawn eng ~name:c.pname (client_proc c))
           clients)
    in
    Proc.join_all eng handles;
    let s1 = Gc.quick_stat () in
    let wall = Unix.gettimeofday () -. t0 in
    Fs.stop w;
    Su_driver.Driver.quiesce w.Fs.driver;
    result :=
      Some
        {
          w_class = class_h;
          w_total = total_h;
          w_executed = !executed;
          w_host_wall = wall;
          w_minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
          w_majors = s1.Gc.major_collections - s0.Gc.major_collections;
        };
    Engine.stop eng
  in
  ignore (Proc.spawn eng ~name:"loadgen" controller);
  (w, result)

let run_world cfg ~shard =
  let w, result = spawn_shard cfg ~shard in
  Engine.run w.Fs.engine;
  match !result with
  | Some r -> r
  | None -> failwith "Loadgen: world did not complete"

let start cfg =
  validate cfg;
  fst (spawn_shard cfg ~shard:0)

(* --- aggregation and reporting ------------------------------------------- *)

type report = {
  class_hist : Hist.t array;
  total_hist : Hist.t;
  executed : int;
  host_wall_s : float;  (* summed across shards (serial-equivalent) *)
  minor_words : float;
  major_collections : int;
}

let run ?(jobs = 1) cfg =
  validate cfg;
  let results =
    Su_util.Pool.map ~jobs cfg.shards (fun s -> run_world cfg ~shard:s)
  in
  (* merge by shard index: same grouping at any job count *)
  let merged k =
    Array.fold_left
      (fun acc r -> Hist.merge acc r.w_class.(k))
      (Hist.create ()) results
  in
  {
    class_hist = Array.init nclasses merged;
    total_hist =
      Array.fold_left
        (fun acc r -> Hist.merge acc r.w_total)
        (Hist.create ()) results;
    executed = Array.fold_left (fun acc r -> acc + r.w_executed) 0 results;
    host_wall_s =
      Array.fold_left (fun acc r -> acc +. r.w_host_wall) 0.0 results;
    minor_words =
      Array.fold_left (fun acc r -> acc +. r.w_minor_words) 0.0 results;
    major_collections =
      Array.fold_left (fun acc r -> acc + r.w_majors) 0 results;
  }

let window cfg = cfg.duration -. cfg.warmup

let measured_ops r = Hist.count r.total_hist

let throughput cfg r = float_of_int (measured_ops r) /. window cfg

(* Everything rendered below is a pure function of the config — the
   host-side fields of [report] must stay out. *)

let class_rows cfg r =
  let row name h =
    let ops = Hist.count h in
    ( name,
      ops,
      float_of_int ops /. window cfg,
      1e3 *. Hist.percentile h 50.0,
      1e3 *. Hist.percentile h 90.0,
      1e3 *. Hist.percentile h 99.0,
      1e3 *. Hist.max_value h )
  in
  List.init nclasses (fun k ->
      row (class_name (class_of_index k)) r.class_hist.(k))
  @ [ row "all" r.total_hist ]

let report_table cfg r =
  let open Su_util.Text_table in
  let tt =
    create
      ~title:
        (Printf.sprintf
           "loadgen: %d clients x %d shard(s), %s, shape %s, %s arrivals, \
            %g ops/s/client, window [%g, %g) s"
           cfg.clients cfg.shards
           (Fs.scheme_kind_name cfg.fs_cfg.Fs.scheme)
           (shape_name cfg.shape) (arrival_name cfg.arrival) cfg.rate
           cfg.warmup cfg.duration)
      ~headers:[ "op class"; "ops"; "ops/s"; "p50 ms"; "p90 ms"; "p99 ms"; "max ms" ]
  in
  List.iter
    (fun (name, ops, rate, p50, p90, p99, mx) ->
      add_row tt
        [
          name; cell_i ops; cell_f ~dec:2 rate; cell_f ~dec:2 p50;
          cell_f ~dec:2 p90; cell_f ~dec:2 p99; cell_f ~dec:2 mx;
        ])
    (class_rows cfg r);
  tt

let report_json cfg r =
  let class_obj (name, ops, rate, p50, p90, p99, mx) =
    Json.Obj
      [
        ("class", Json.Str name);
        ("ops", Json.Int ops);
        ("ops_per_sec", Json.Float rate);
        ("p50_ms", Json.Float p50);
        ("p90_ms", Json.Float p90);
        ("p99_ms", Json.Float p99);
        ("max_ms", Json.Float mx);
      ]
  in
  Json.Obj
    [
      ("experiment", Json.Str "loadgen");
      ("clients", Json.Int cfg.clients);
      ("shards", Json.Int cfg.shards);
      ("scheme", Json.Str (Fs.scheme_kind_name cfg.fs_cfg.Fs.scheme));
      ("shape", Json.Str (shape_name cfg.shape));
      ("arrival", Json.Str (arrival_name cfg.arrival));
      ("rate_per_client", Json.Float cfg.rate);
      ("duration_s", Json.Float cfg.duration);
      ("warmup_s", Json.Float cfg.warmup);
      ("files_per_client", Json.Int cfg.files_per_client);
      ("seed", Json.Int cfg.seed);
      ("measured_ops", Json.Int (measured_ops r));
      ("throughput_ops_per_sec", Json.Float (throughput cfg r));
      ("classes", Json.List (List.map class_obj (class_rows cfg r)));
    ]
