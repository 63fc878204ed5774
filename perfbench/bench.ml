(* The simulator's benchmark: one run drives three kinds of traffic
   through the library's public interface and prints every end-to-end
   metric (or, with --trace 1, every per-layer metric) as one JSON
   line.

   Traffic kinds (every run carries all three, so every metric is
   measured on every workload; the workload decides which one is
   full size and which two are small companions):

   - paper: the paper's copy/remove benchmark, a closed loop of N
     users, each copying then removing its own seeded source tree,
     under each of the five paper schemes;
   - tenants: an open loop of Poisson tenants issuing Loadgen's
     create/write/rename/unlink/mkdir mix on one soft-updates volume
     with the directory index on, then a crash and the recovery
     pipeline (fsck check, fsck repair, remount);
   - sweep: the crash-state explorer over built-in crash workloads for
     soft updates and conventional, per-state verification fanned out
     over a two-domain pool.

   The benchmark generates every input from --seed, issues the FS
   calls itself (so it can count, classify and time each one) and
   checks the outputs. Host timings are in calibrated seconds (see
   Gauge), so a shared host's drifting speed does not read as a change
   in the program. A traced run repeats the untraced pass with spans
   recorded around each call into a layer, checks that every simulated
   figure is bit-identical between the two passes, and reports
   per-layer numbers plus the tracing overhead. *)

open Su_fs
module Engine = Su_sim.Engine
module Proc = Su_sim.Proc
module Rng = Su_util.Rng
module Explorer = Su_check.Explorer
module Delta = Su_check.Delta
module Tree = Su_workload.Tree
module Runner = Su_workload.Runner
module Bcache = Su_cache.Bcache
module Syncer = Su_cache.Syncer
module Disk = Su_disk.Disk
module Trace = Su_driver.Trace

let now = Unix.gettimeofday

(* --- workloads ------------------------------------------------------- *)

type sizes = {
  users : int;  (** paper users, each with a 535-file / 14.3 MB tree *)
  tenants : int;
  window : float;  (** simulated seconds of tenant arrivals *)
  sweeps : int;  (** sweeps over the four built-in crash workloads *)
  schemes : Fs.scheme_kind list;  (** the schemes each sweep covers *)
}

(* Each workload runs its own kind at full size and the other two as
   smaller companions, sized so a run takes about 20-30 s on two cores.
   Three sweeps give every (scheme, crash workload) pair three timings
   to take the median of. A companion sweep covers conventional only
   (1,425 of the 1,858 states): its pairs take longer than soft
   updates' and their timings spread less. *)
let workloads =
  let full = [ Fs.Soft_updates; Fs.Conventional ] and companion = [ Fs.Conventional ] in
  let mk users tenants window schemes = { users; tenants; window; sweeps = 3; schemes } in
  [ ("paper-copy-remove", mk 4 1000 200.0 companion);
    ("tenants", mk 2 2000 300.0 companion);
    ("crashsweep", mk 2 1000 200.0 full) ]

let crash_workloads = [ "smallfiles"; "dirtree"; "renamefile"; "renamedir" ]

(* Recoveries of the crashed tenant volume; the median is reported. *)
let recoveries = 15

let tenant_rate = 0.05  (* ops per simulated second per tenant *)
let warmup = 10.0  (* simulated seconds before latencies count *)
let files_per_tenant = 8
let jobs = 2
let probe_every = 0.1  (* simulated seconds between probe samples *)

(* Crash states per built-in workload: (soft updates, conventional). *)
let expected_states =
  [ ("smallfiles", (99, 459)); ("dirtree", (135, 543));
    ("renamefile", (84, 172)); ("renamedir", (115, 251)) ]

let scheme_name = function
  | Fs.Conventional -> "conventional"
  | Fs.Scheduler_flag -> "sched_flag"
  | Fs.Scheduler_chains _ -> "sched_chains"
  | Fs.Soft_updates -> "soft_updates"
  | Fs.No_order -> "no_order"
  | Fs.Journaled _ -> "journaled"

(* --- per-pass accumulators ------------------------------------------ *)

module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0.0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let sorted v =
    let s = Array.sub v.a 0 v.n in
    Array.sort Float.compare s;
    s
end

(* Exact nearest-rank percentile of a sorted sample. *)
let pct s p =
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

type pass = {
  seed : int;
  sz : sizes;
  traced : bool;
  acc : (string, float) Hashtbl.t;  (** sums and maxima by name *)
  samples : (string, Fvec.t) Hashtbl.t;
  errors : (string, int) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable checks : (string * bool) list;  (** name, passed *)
}

let get p k = Option.value ~default:0.0 (Hashtbl.find_opt p.acc k)
let add p k v = Hashtbl.replace p.acc k (get p k +. v)
let hmax p k v = Hashtbl.replace p.acc k (Float.max (get p k) v)

let sample p k x =
  let v =
    match Hashtbl.find_opt p.samples k with
    | Some v -> v
    | None ->
      let v = Fvec.create () in
      Hashtbl.replace p.samples k v;
      v
  in
  Fvec.push v x

let sorted p k =
  match Hashtbl.find_opt p.samples k with
  | Some v -> Fvec.sorted v
  | None -> [||]

let check p name ok =
  if not ok then Printf.eprintf "perfbench: check failed: %s\n%!" name;
  p.checks <- (name, ok) :: p.checks

let fail p kind n =
  p.failed <- p.failed + n;
  Hashtbl.replace p.errors kind
    (n + Option.value ~default:0 (Hashtbl.find_opt p.errors kind))

(* GC counters over a measured phase that began at [s0]. *)
let gc_stop p (s0 : Gc.stat) =
  let s1 = Gc.quick_stat () in
  add p "gc.minor_words" (s1.Gc.minor_words -. s0.Gc.minor_words);
  add p "gc.promoted_words" (s1.Gc.promoted_words -. s0.Gc.promoted_words);
  add p "gc.minor_collections"
    (float_of_int (s1.Gc.minor_collections - s0.Gc.minor_collections));
  add p "gc.major_collections"
    (float_of_int (s1.Gc.major_collections - s0.Gc.major_collections))

(* --- the syscall boundary ------------------------------------------- *)

let errno = function
  | Fsops.Enoent _ -> Some "ENOENT"
  | Fsops.Eexist _ -> Some "EEXIST"
  | Fsops.Enotdir _ -> Some "ENOTDIR"
  | Fsops.Eisdir _ -> Some "EISDIR"
  | Fsops.Enotempty _ -> Some "ENOTEMPTY"
  | Fsops.Einval _ -> Some "EINVAL"
  | Fsops.Eio _ -> Some "EIO"
  | Fsops.Erofs _ -> Some "EROFS"
  | Failure m -> Some ("Failure " ^ m)
  | _ -> None

(* One FS call: counted as attempted, a typed error or [Failure]
   counted as failed (by kind), anything else aborts the world. *)
let syscall p (st : State.t) ~parent ~actor name f =
  p.attempted <- p.attempted + 1;
  Gauge.tick ();
  match
    Spans.within ~parent ~actor
      ~sim:(fun () -> Engine.now st.State.engine)
      ~layer:"fsops" ~name f
  with
  | r -> Some r
  | exception e -> (
    match errno e with
    | Some kind ->
      fail p kind 1;
      None
    | None -> raise e)

(* World-level counters read from outside at the start and end of a
   measured phase; the difference is the phase's share. *)
type snap = {
  host : float;
  sim : float;
  events : int;
  hits : int;
  misses : int;
  evictions : int;
  cpu : float;
  busy : float;
  seek : float;
  rot : float;
  xfer : float;
  deps : int;
  rollbacks : int;
  gc : Gc.stat;
}

let snap (st : State.t) =
  let sd f =
    match st.State.softdep_stats with Some s -> f s | None -> 0
  in
  {
    host = now ();
    sim = Engine.now st.State.engine;
    events = Engine.events_executed st.State.engine;
    hits = Bcache.hits st.State.cache;
    misses = Bcache.misses st.State.cache;
    evictions = Bcache.evictions st.State.cache;
    cpu = Su_sim.Cpu.busy_time st.State.cpu;
    busy = Disk.total_service_time st.State.disk;
    seek = Disk.seek_time_total st.State.disk;
    rot = Disk.rot_wait_time_total st.State.disk;
    xfer = Disk.transfer_time_total st.State.disk;
    deps = sd (fun s -> s.Su_core.Softdep.created);
    rollbacks = sd (fun s -> s.Su_core.Softdep.rollbacks);
    gc = Gc.quick_stat ();
  }

(* Accumulate a measured phase of [calls] FS calls. Simulated counters
   go under their per-layer names; host figures under host.*, in
   calibrated seconds (see Gauge). *)
let account p ~calls (a : snap) (b : snap) =
  let d f = float_of_int (f b - f a) in
  Gauge.burst ();
  add p "syscalls" (float_of_int calls);
  add p "host.steady_s" (Gauge.calibrated a.host b.host);
  add p "engine.events" (d (fun s -> s.events));
  add p "sim.span_s" (b.sim -. a.sim);
  add p "cache.hits" (d (fun s -> s.hits));
  add p "cache.misses" (d (fun s -> s.misses));
  add p "cache.evictions" (d (fun s -> s.evictions));
  add p "cpu.busy_s" (b.cpu -. a.cpu);
  add p "disk.busy_s" (b.busy -. a.busy);
  add p "disk.seek_s" (b.seek -. a.seek);
  add p "disk.rot_wait_s" (b.rot -. a.rot);
  add p "disk.transfer_s" (b.xfer -. a.xfer);
  add p "softdep.deps_created" (d (fun s -> s.deps));
  add p "softdep.rollbacks" (d (fun s -> s.rollbacks));
  gc_stop p a.gc

(* Driver statistics of a world's trace since its last reset. *)
let account_driver p ~soft tr =
  let n = float_of_int (Trace.requests tr) in
  add p "driver.requests" n;
  add p "driver.writes" (float_of_int (Trace.writes tr));
  if soft then add p "driver.soft_writes" (float_of_int (Trace.writes tr));
  add p "driver.queue_ms_sum" (Trace.avg_queue_ms tr *. n);
  add p "driver.sync_response_ms_sum"
    (Trace.sync_avg_response_ms tr
    *. float_of_int (Su_obs.Hist.count (Trace.sync_response_hist tr)));
  add p "driver.sync_requests"
    (float_of_int (Su_obs.Hist.count (Trace.sync_response_hist tr)));
  hmax p "driver.qdepth_max" (Su_obs.Hist.max_value (Trace.qdepth_hist tr))

(* Traced runs sample the engine queue and the cache from a simulated
   process; it only reads, so the simulation is unchanged. *)
let spawn_probe p (st : State.t) =
  if p.traced then
    ignore
      (Proc.spawn st.State.engine ~name:"perfbench-probe" (fun () ->
           while true do
             hmax p "engine.pending_max"
               (float_of_int (Engine.pending st.State.engine));
             hmax p "cache.used_frags_max"
               (float_of_int (Bcache.used_frags st.State.cache));
             Proc.sleep st.State.engine probe_every
           done))

(* --- paper: copy then remove, five schemes ---------------------------- *)

(* These walks issue exactly the calls Tree.copy and Tree.remove issue,
   in the same order, one at a time through [syscall]. *)
let rec copy_tree p st ~parent ~actor ~src ~dst =
  let sys name f = syscall p st ~parent ~actor name f in
  match sys "readdir" (fun () -> Fsops.readdir st src) with
  | None -> ()
  | Some names ->
    List.iter
      (fun name ->
        let s = src ^ "/" ^ name and d = dst ^ "/" ^ name in
        match sys "stat" (fun () -> Fsops.stat st s) with
        | None -> ()
        | Some info -> (
          match info.Fsops.st_ftype with
          | Su_fstypes.Types.F_dir ->
            if sys "mkdir" (fun () -> Fsops.mkdir st d) <> None then
              copy_tree p st ~parent ~actor ~src:s ~dst:d
          | Su_fstypes.Types.F_reg ->
            ignore (sys "read_file" (fun () -> ignore (Fsops.read_file st s)));
            if sys "create" (fun () -> Fsops.create st d) <> None
               && info.Fsops.st_size > 0
            then
              ignore
                (sys "append" (fun () ->
                     Fsops.append st d ~bytes:info.Fsops.st_size))
          | Su_fstypes.Types.F_free -> ()))
      (List.filter (fun n -> n <> "." && n <> "..") names)

let rec remove_tree p st ~parent ~actor path =
  let sys name f = syscall p st ~parent ~actor name f in
  (match sys "readdir" (fun () -> Fsops.readdir st path) with
   | None -> ()
   | Some names ->
     List.iter
       (fun name ->
         let q = path ^ "/" ^ name in
         match sys "stat" (fun () -> Fsops.stat st q) with
         | None -> ()
         | Some info -> (
           match info.Fsops.st_ftype with
           | Su_fstypes.Types.F_dir -> remove_tree p st ~parent ~actor q
           | Su_fstypes.Types.F_reg | Su_fstypes.Types.F_free ->
             ignore (sys "unlink" (fun () -> Fsops.unlink st q))))
       (List.filter (fun n -> n <> "." && n <> "..") names));
  ignore (sys "rmdir" (fun () -> Fsops.rmdir st path))

(* The calls those walks issue over a tree. *)
let rec copy_calls nodes =
  List.fold_left
    (fun n node ->
      match node with
      | Tree.Dir (_, kids) -> n + 2 + copy_calls kids
      | Tree.File (_, size) -> n + 3 + if size > 0 then 1 else 0)
    1 nodes

let rec remove_calls nodes =
  List.fold_left
    (fun n node ->
      match node with
      | Tree.Dir (_, kids) -> n + 1 + remove_calls kids
      | Tree.File _ -> n + 2)
    2 nodes

(* One Runner world, set up as Benchmarks.copy / Benchmarks.remove set
   theirs up (remove's users delete a freshly copied tree). Returns the
   users' mean simulated elapsed. *)
let paper_world p ~parent ~cfg ~copy =
  let sz = p.sz in
  let specs =
    Array.init sz.users (fun u ->
        Tree.spec ~seed:(p.seed + u) ())
  in
  let src u = Printf.sprintf "/src%d" u and dst u = Printf.sprintf "/dst%d" u in
  let setup st =
    for u = 0 to sz.users - 1 do
      Fsops.mkdir st (src u);
      Tree.populate st ~base:(src u) specs.(u);
      Gauge.burst ()
    done;
    for u = 0 to sz.users - 1 do
      Fsops.mkdir st (dst u);
      if not copy then Tree.copy st ~src:(src u) ~dst:(dst u);
      Gauge.burst ()
    done
  in
  let expected =
    Array.fold_left
      (fun n spec -> n + if copy then copy_calls spec else remove_calls spec)
      0 specs
  in
  Gauge.burst ();
  let h0 = now () in
  let start = ref None in
  let calls0 = p.attempted in
  let body u st =
    if !start = None then begin
      let ready = now () in
      Gauge.burst ();
      Gc.full_major ();
      start := Some (st, ready, snap st);
      spawn_probe p st
    end;
    if copy then copy_tree p st ~parent ~actor:u ~src:(src u) ~dst:(dst u)
    else remove_tree p st ~parent ~actor:u (dst u)
  in
  match Runner.run ~cfg ~setup ~users:sz.users body with
  | m -> (
    match !start with
    | None -> failwith "paper world never started"
    | Some (st, ready, a) ->
      let b = snap st in
      add p "setup_s" (Gauge.calibrated h0 ready);
      check p "paper users issue every call of their walk"
        (p.attempted - calls0 = expected);
      account p ~calls:(p.attempted - calls0) a b;
      let soft = cfg.Fs.scheme = Fs.Soft_updates in
      account_driver p ~soft (Su_driver.Driver.trace st.State.driver);
      let c k = Option.value ~default:0.0 (List.assoc_opt k m.Runner.counters) in
      hmax p "cache.dirty_max" (c "syncer.dirty_max");
      Some m.Runner.elapsed_avg)
  | exception e ->
    Printf.eprintf "perfbench: paper world (%s, %s) aborted: %s\n%!"
      (scheme_name cfg.Fs.scheme) (if copy then "copy" else "remove")
      (Printexc.to_string e);
    (* the calls the users never issued count as failed *)
    fail p "aborted world" (max 1 (expected - (p.attempted - calls0)));
    check p "paper worlds complete" false;
    None

(* Copy then remove under one scheme, each in a fresh Runner world. *)
let paper scheme p =
  let parent = Spans.fresh () in
  let name = scheme_name scheme in
  Spans.within ~id:parent ~layer:"phase" ~name:("paper " ^ name) (fun () ->
      let cfg = Fs.config ~scheme () in
      let copy = paper_world p ~parent ~cfg ~copy:true in
      let remove = paper_world p ~parent ~cfg ~copy:false in
      match (copy, remove) with
      | Some c, Some r ->
        add p ("paper.copy_s." ^ name) c;
        add p ("sim_elapsed_s." ^ name) (c +. r)
      | _ -> ())

let paper_checks p =
  let copy s = Option.value ~default:nan (Hashtbl.find_opt p.acc ("paper.copy_s." ^ s)) in
  List.iter
    (fun s ->
      check p ("soft-updates copy faster than " ^ s) (copy "soft_updates" < copy s))
    [ "conventional"; "sched_flag"; "sched_chains" ]

(* --- tenants: open loop, crash, recovery ------------------------------ *)

type op = Create | Write | Rename | Unlink | Mkdir

let op_name = function
  | Create -> "create"
  | Write -> "write"
  | Rename -> "rename"
  | Unlink -> "unlink"
  | Mkdir -> "mkdir"

let ops = [| Create; Write; Rename; Unlink; Mkdir |]
let base_weights = [| 30; 30; 15; 15; 10 |]  (* Loadgen's mix *)
let subdirs = 4

(* A tenant's generator state doubles as the model of its directory:
   file slot k is named f<k> or, once renamed, r<k>. *)
type tenant = {
  gid : int;
  rng : Rng.t;
  dir : string;
  fnames : string array;
  rnames : string array;
  renamed : bool array;
  live : int array;
  mutable nlive : int;
  free : int array;
  mutable nfree : int;
  mutable ndirs : int;
  weights : int array;
  wtotal : int;
  mutable t_next : float;
}

let make_tenant root gid =
  let rng = Rng.substream root gid in
  let dir = Printf.sprintf "/t%d" gid in
  let cap = files_per_tenant + 4 in
  let weights = Array.map (fun b -> b + Rng.int rng (1 + (b / 2))) base_weights in
  {
    gid; rng; dir;
    fnames = Array.init cap (fun k -> Printf.sprintf "%s/f%d" dir k);
    rnames = Array.init cap (fun k -> Printf.sprintf "%s/r%d" dir k);
    renamed = Array.make cap false;
    live = Array.make cap 0;
    nlive = 0;
    free = Array.init cap (fun k -> cap - 1 - k);
    nfree = cap;
    ndirs = 0;
    weights;
    wtotal = Array.fold_left ( + ) 0 weights;
    t_next = 0.0;
  }

let pick c =
  let r = Rng.int c.rng c.wtotal in
  let rec go k acc =
    let acc = acc + c.weights.(k) in
    if r < acc || k = Array.length ops - 1 then ops.(k) else go (k + 1) acc
  in
  go 0 0

let slot_name c k = if c.renamed.(k) then c.rnames.(k) else c.fnames.(k)
let dname c j = Printf.sprintf "%s/d%d" c.dir j

(* Issue one op, degrading to one the tenant's state admits (as
   Loadgen does); the model changes only when the call succeeds. *)
let rec execute p st ~parent c op =
  let sys f = syscall p st ~parent ~actor:c.gid (op_name op) f <> None in
  match op with
  | Create when c.nfree = 0 -> execute p st ~parent c Write
  | Create ->
    let k = c.free.(c.nfree - 1) in
    let ok = sys (fun () -> Fsops.create st c.fnames.(k)) in
    if ok then begin
      c.nfree <- c.nfree - 1;
      c.renamed.(k) <- false;
      c.live.(c.nlive) <- k;
      c.nlive <- c.nlive + 1
    end;
    (op, ok)
  | (Write | Rename | Unlink) when c.nlive = 0 -> execute p st ~parent c Create
  | Write ->
    let k = c.live.(Rng.int c.rng c.nlive) in
    let bytes = 1024 * (1 + Rng.int c.rng 4) in
    (op, sys (fun () -> Fsops.write_file st (slot_name c k) ~bytes))
  | Rename ->
    let k = c.live.(Rng.int c.rng c.nlive) in
    let src = slot_name c k in
    let dst = if c.renamed.(k) then c.fnames.(k) else c.rnames.(k) in
    let ok = sys (fun () -> Fsops.rename st ~src ~dst) in
    if ok then c.renamed.(k) <- not c.renamed.(k);
    (op, ok)
  | Unlink ->
    let i = Rng.int c.rng c.nlive in
    let k = c.live.(i) in
    let ok = sys (fun () -> Fsops.unlink st (slot_name c k)) in
    if ok then begin
      c.nlive <- c.nlive - 1;
      c.live.(i) <- c.live.(c.nlive);
      c.free.(c.nfree) <- k;
      c.nfree <- c.nfree + 1
    end;
    (op, ok)
  | Mkdir when c.ndirs >= subdirs -> execute p st ~parent c Write
  | Mkdir ->
    let ok = sys (fun () -> Fsops.mkdir st (dname c c.ndirs)) in
    if ok then c.ndirs <- c.ndirs + 1;
    (op, ok)

let basename path =
  let i = String.rindex path '/' + 1 in
  String.sub path i (String.length path - i)

let model_listing c =
  let names = ref [] in
  for i = 0 to c.nlive - 1 do
    names := basename (slot_name c c.live.(i)) :: !names
  done;
  for j = 0 to c.ndirs - 1 do
    names := basename (dname c j) :: !names
  done;
  List.sort compare !names

let next_arrival c t = t +. Rng.exponential c.rng (1.0 /. tenant_rate)

let tenant_cfg () = { (Fs.config ~scheme:Fs.Soft_updates ()) with Fs.dir_index = true }

(* Where the tenant phase leaves its crashed image for the recovery
   phases, which run in later children spread across the run. *)
let image_path = ref "crash-image.bin"

(* One recovery of the crashed tenant volume: read the image back
   (untimed), then check, repair and remount it. *)
let recovery ~first p =
  let parent = Spans.fresh () in
  Spans.within ~id:parent ~layer:"phase" ~name:"recovery" @@ fun () ->
  match In_channel.with_open_bin !image_path Marshal.from_channel with
  | exception Sys_error _ -> ()  (* the tenant world aborted, already reported *)
  | (img : Su_fstypes.Types.cell array) ->
    let cfg = tenant_cfg () in
    let geom = cfg.Fs.geom and check_exposure = cfg.Fs.alloc_init in
    let span layer name f = Spans.within ~parent ~layer ~name f in
    Gc.full_major ();
    Gauge.burst ();
    let t0 = now () in
    let report =
      span "fsck" "Fsck.check" (fun () -> Fsck.check ~geom ~image:img ~check_exposure)
    in
    let t1 = now () in
    let outcome =
      span "fsck" "Fsck.repair" (fun () -> Fsck.repair ~geom ~image:img ~check_exposure ())
    in
    let t2 = now () in
    let mounted =
      match span "mount" "Fs.mount_image" (fun () -> Fs.mount_image cfg img) with
      | _ -> true
      | exception e ->
        Printf.eprintf "perfbench: remount failed: %s\n%!" (Printexc.to_string e);
        false
    in
    let t3 = now () in
    Gauge.burst ();
    let cal = Gauge.calibrated in
    if first then begin
      List.iter
        (fun v -> Format.eprintf "perfbench: fsck violation: %a@." Fsck.pp_violation v)
        report.Fsck.violations;
      check p "crashed tenant volume has no fsck violations" (Fsck.ok report);
      check p "tenant volume repairs and remounts"
        (outcome.Fsck.converged && Fsck.ok outcome.Fsck.final && mounted);
      add p "fsck.inodes" (float_of_int (report.Fsck.files + report.Fsck.dirs))
    end;
    sample p "fsck.check_s" (cal t0 t1);
    sample p "fsck.repair_s" (cal t1 t2);
    sample p "fsck.remount_s" (cal t2 t3);
    sample p "recovery_s" (cal t0 t3)

let tenants p =
  let parent = Spans.fresh () in
  Spans.within ~id:parent ~layer:"phase" ~name:"tenants" @@ fun () ->
  let sz = p.sz in
  let cfg = tenant_cfg () in
  Gauge.burst ();
  let h0 = now () in
  let w = Spans.within ~parent ~layer:"volume" ~name:"Fs.make" (fun () -> Fs.make cfg) in
  let h1 = now () in
  Gauge.burst ();
  sample p "volume.mkfs_s" (Gauge.calibrated h0 h1);
  let st = w.Fs.st and eng = w.Fs.engine in
  let root = Rng.create p.seed in
  let clients = Array.init sz.tenants (make_tenant root) in
  let t_base = ref 0.0 in
  let calls0 = p.attempted in
  let tenant c () =
    let rec loop () =
      let t = c.t_next in
      if t < sz.window then begin
        let due = !t_base +. t in
        let n = Engine.now eng in
        if due > n then Proc.sleep eng (due -. n);
        let issued = Engine.now eng in
        let op, ok = execute p st ~parent c (pick c) in
        if t >= warmup then begin
          sample p "gen.late_ms" ((issued -. due) *. 1e3);
          if ok then begin
            let ms = (Engine.now eng -. due) *. 1e3 in
            sample p "sim_latency_ms" ms;
            sample p ("fsops." ^ op_name op) ms
          end
        end;
        c.t_next <- next_arrival c t;
        loop ()
      end
    in
    loop ()
  in
  let controller () =
    Array.iter
      (fun c ->
        Fsops.mkdir st c.dir;
        for k = 0 to files_per_tenant - 1 do
          Fsops.create st c.fnames.(k);
          c.live.(c.nlive) <- c.free.(c.nfree - 1);
          c.nlive <- c.nlive + 1;
          c.nfree <- c.nfree - 1
        done;
        c.t_next <- next_arrival c 0.0;
        Gauge.tick ())
      clients;
    Fsops.sync st;
    Su_driver.Driver.reset_trace w.Fs.driver;
    t_base := Engine.now eng;
    let ready = now () in
    Gauge.burst ();
    add p "setup_s" (Gauge.calibrated h0 ready);
    Gc.full_major ();
    let a = snap st in
    let syn = w.Fs.syncer in
    let passes0 = Syncer.passes_run syn and writes0 = Syncer.writes_issued syn in
    let handles =
      Array.to_list
        (Array.map
           (fun c -> Proc.spawn eng ~name:(Printf.sprintf "tenant%d" c.gid) (tenant c))
           clients)
    in
    spawn_probe p st;
    Proc.join_all eng handles;
    let b = snap st in
    account p ~calls:(p.attempted - calls0) a b;
    add p "syncer.passes" (float_of_int (Syncer.passes_run syn - passes0));
    add p "syncer.writes" (float_of_int (Syncer.writes_issued syn - writes0));
    add p "syncer.syscalls" (float_of_int (p.attempted - calls0));
    let mismatched =
      Array.fold_left
        (fun bad c ->
          let listed =
            List.sort compare
              (List.filter (fun n -> n <> "." && n <> "..") (Fsops.readdir st c.dir))
          in
          if listed = model_listing c then bad else bad + 1)
        0 clients
    in
    check p "every tenant's readdir matches its model" (mismatched = 0);
    Engine.stop eng
  in
  ignore (Proc.spawn eng ~name:"perfbench-controller" controller);
  match Engine.run eng with
  | exception e ->
    Printf.eprintf "perfbench: tenant world aborted: %s\n%!" (Printexc.to_string e);
    (* every arrival the window still held counts as failed *)
    let left = ref 0 in
    Array.iter
      (fun c ->
        while c.t_next < sz.window do
          incr left;
          c.t_next <- next_arrival c c.t_next
        done)
      clients;
    fail p "aborted world" (max 1 !left);
    check p "tenant world completes" false
  | () ->
    account_driver p ~soft:true (Su_driver.Driver.trace w.Fs.driver);
    hmax p "cache.dirty_max" (Su_obs.Hist.max_value (Syncer.residency_hist w.Fs.syncer));
    hmax p "volume.slab_bytes"
      (float_of_int (Disk.image_stats w.Fs.disk).Su_fstypes.Volume.slab_bytes);
    let image = Crash.crash_at w (Engine.now eng) in
    Out_channel.with_open_bin !image_path (fun oc -> Marshal.to_channel oc image [])

(* --- crash sweep ------------------------------------------------------- *)

(* The compact volume metasim crashsweep uses. *)
let sweep_cfg scheme =
  {
    (Fs.config ~scheme ()) with
    Fs.geom = Su_fstypes.Geom.v ~mb:32 ~cg_mb:16 ~inodes_per_cg:1024 ();
    cache_mb = 4;
    journal_mb = 2;
  }

(* Traced sweep: the explorer's own fan-out, with each pool task timed
   by wrapping the function handed to the pool. *)
let traced_sweep p ~parent ~cfg r =
  let states = Explorer.crash_states r in
  let results =
    Su_util.Pool.map_with ~jobs
      ~init:(fun () -> Delta.cursor ~initial:r.Explorer.rec_initial ~log:r.Explorer.rec_deltas)
      (Array.length states)
      (fun cur i ->
        let id = Spans.fresh () in
        let h0 = now () in
        let v, verify =
          Spans.within ~id ~parent ~layer:"pool" ~name:"task" (fun () ->
              let boundary, torn = states.(i) in
              let img =
                Spans.within ~parent:id ~layer:"delta" ~name:"Explorer.materialize"
                  (fun () -> Explorer.materialize cur states.(i))
              in
              let v0 = now () in
              let v =
                Spans.within ~parent:id ~layer:"explorer" ~name:"Explorer.verify_state"
                  (fun () -> Explorer.verify_state ~cfg ~boundary ~torn img)
              in
              (v, now () -. v0))
        in
        (v, verify, now () -. h0))
  in
  Array.iter
    (fun (_, verify, task) ->
      sample p "explorer.verify_ms" (verify *. 1e3);
      add p "pool.task_s" task)
    results;
  Array.to_list (Array.map (fun (v, _, _) -> v) results)

(* Traced split of each state into its recovery steps, on one cursor. *)
let split_states p ~parent ~cfg r =
  let geom = cfg.Fs.geom and check_exposure = cfg.Fs.alloc_init in
  let span layer name f = Spans.within ~parent ~layer ~name f in
  let cur = Delta.cursor ~initial:r.Explorer.rec_initial ~log:r.Explorer.rec_deltas in
  Array.iter
    (fun ((k, _) as state) ->
      let t0 = now () in
      span "delta" "Delta.seek" (fun () -> Delta.seek cur k);
      let t1 = now () in
      let img = Explorer.materialize cur state in
      let t2 = now () in
      ignore (span "fsck" "Fsck.check" (fun () -> Fsck.check ~geom ~image:img ~check_exposure));
      let t3 = now () in
      ignore
        (span "fsck" "Fsck.repair" (fun () -> Fsck.repair ~geom ~image:img ~check_exposure ()));
      let t4 = now () in
      (try ignore (span "mount" "Fs.mount_image" (fun () -> Fs.mount_image cfg img))
       with _ -> ());
      let t5 = now () in
      sample p "delta.seek_us" ((t1 -. t0) *. 1e6);
      sample p "fsck.check_ms" ((t3 -. t2) *. 1e3);
      sample p "fsck.repair_ms" ((t4 -. t3) *. 1e3);
      sample p "fsck.remount_ms" ((t5 -. t4) *. 1e3))
    (Explorer.crash_states r)

(* One sweep over every (scheme, crash workload) pair of the workload's
   schemes; the untraced pass runs [sz.sweeps] of them, spread across
   the run (see [run_pass]). *)
let sweep p =
  let parent = Spans.fresh () in
  Spans.within ~id:parent ~layer:"phase" ~name:"crashsweep" @@ fun () ->
  List.iter
    (fun scheme ->
      let cfg = sweep_cfg scheme in
      let total = ref 0 in
      List.iter
        (fun name ->
          let wl = Option.get (Explorer.find_workload name) in
          Gauge.burst ();
          let h0 = now () in
          let r =
            Spans.within ~parent ~layer:"explorer" ~name:"Explorer.record" (fun () ->
                Explorer.record ~cfg wl)
          in
          let h1 = now () in
          Gauge.burst ();
          let dt = Gauge.calibrated h0 h1 in
          add p "setup_s" dt;
          add p "explorer.record_s" dt;
          Gc.full_major ();
          let g = Gc.quick_stat () in
          (* the traced pass checks consistency through the verdict
             digest it shares with the untraced pass *)
          Gauge.burst ();
          let t0 = now () in
          let verdicts, consistent =
            if p.traced then (traced_sweep p ~parent ~cfg r, None)
            else
              let s = Explorer.sweep_recording ~jobs ~cfg ~workload:name r in
              (s.Explorer.s_verdicts, Some (Explorer.consistent s))
          in
          let t1 = now () in
          Gauge.burst ();
          gc_stop p g;
          let n = List.length verdicts in
          let count f = List.length (List.filter f verdicts) in
          sample p (Printf.sprintf "sweep_s.%s.%s" (scheme_name scheme) name)
            (Gauge.calibrated t0 t1);
          add p "pool.wall_s" (t1 -. t0);
          total := !total + n;
          p.attempted <- p.attempted + n;
          add p "states_verified" (float_of_int n);
          let bad =
            count (fun v ->
                v.Explorer.v_pre_violations > 0 || v.Explorer.v_post_violations > 0
                || (not v.Explorer.v_repair_converged) || not v.Explorer.v_remount_ok)
          in
          if bad > 0 then fail p "crash state broke its scheme's promise" bad;
          Option.iter
            (check p (Printf.sprintf "%s/%s consistent" (scheme_name scheme) name))
            consistent;
          let key = Printf.sprintf "sweep.%s.%s" (scheme_name scheme) name in
          hmax p (key ^ ".states") (float_of_int n);
          hmax p (key ^ ".dirty") (float_of_int (count (fun v -> v.Explorer.v_pre_violations > 0)));
          hmax p (key ^ ".verdicts")
            (float_of_int (Hashtbl.hash (Digest.string (Marshal.to_string verdicts []))));
          if p.traced then split_states p ~parent ~cfg r)
        crash_workloads;
      let want =
        List.fold_left
          (fun n name ->
            let soft, conv = List.assoc name expected_states in
            n + if scheme = Fs.Soft_updates then soft else conv)
          0 crash_workloads
      in
      check p
        (Printf.sprintf "%s sweep explores %d states" (scheme_name scheme) want)
        (!total = want))
    p.sz.schemes

(* --- one pass ---------------------------------------------------------- *)

let fresh_pass ~seed ~sz ~traced =
  {
    seed; sz; traced;
    acc = Hashtbl.create 64;
    samples = Hashtbl.create 32;
    errors = Hashtbl.create 8;
    attempted = 0;
    failed = 0;
    checks = [];
  }

(* Accumulators combined by maximum when passes merge (per-sweep
   verdict figures repeat across sweeps); the rest add. *)
let by_max k =
  String.starts_with ~prefix:"sweep." k
  || List.mem k
       [ "engine.pending_max"; "cache.used_frags_max"; "cache.dirty_max";
         "driver.qdepth_max"; "volume.slab_bytes"; "heap_peak_mb" ]

let merge p q =
  Hashtbl.iter (fun k v -> if by_max k then hmax p k v else add p k v) q.acc;
  Hashtbl.iter
    (fun k (v : Fvec.t) -> for i = 0 to v.Fvec.n - 1 do sample p k v.Fvec.a.(i) done)
    q.samples;
  Hashtbl.iter (fun k n -> fail p k n) q.errors;
  p.attempted <- p.attempted + q.attempted;
  p.checks <- q.checks @ p.checks

(* Each piece of work runs in a forked child with a fresh heap, so one
   piece's garbage and heap size do not tax the next one's timings; the
   child sends its accumulators and spans back through a pipe. *)
let in_child p k name phase =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    Spans.clear ();
    Gauge.clear ();
    Atomic.set Spans.next_id ((k + 1) * 1_000_000_000);
    let q = fresh_pass ~seed:p.seed ~sz:p.sz ~traced:p.traced in
    Spans.on := p.traced;
    phase q;
    Array.iter (sample q "gauge.s") (Gauge.times ());
    hmax q "heap_peak_mb"
      (float_of_int (Gc.quick_stat ()).Gc.top_heap_words
      *. float_of_int (Sys.word_size / 8) /. 1e6);
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc (q, Spans.all ()) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let result = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match result with
    | Some (q, spans) ->
      merge p q;
      Array.iter Spans.add spans
    | None -> check p (name ^ " phase ran to completion") false

(* The tenant phase runs first; the recoveries of its crashed image,
   the paper schemes and the sweeps are then dealt out in turn, so
   repeated measurements sample the host at several moments of the run
   rather than in one stretch. The traced pass measures each once. *)
let run_pass ~seed ~sz ~traced =
  let p = fresh_pass ~seed ~sz ~traced in
  let times n = if traced then 1 else n in
  let recoveries =
    List.init (times recoveries) (fun i -> ("recovery", recovery ~first:(i = 0)))
  in
  let papers = List.map (fun s -> ("paper", paper s)) Fs.all_schemes in
  let sweeps = List.init (times sz.sweeps) (fun _ -> ("crashsweep", sweep)) in
  let rec deal lists =
    match List.filter (function [] -> false | _ :: _ -> true) lists with
    | [] -> []
    | lists -> List.map List.hd lists @ deal (List.map List.tl lists)
  in
  List.iteri
    (fun k (name, phase) -> in_child p k name phase)
    (("tenants", tenants) :: deal [ recoveries; papers; sweeps ]);
  (try Sys.remove !image_path with Sys_error _ -> ());
  paper_checks p;
  p

(* --- metrics ----------------------------------------------------------- *)

let median p k = pct (sorted p k) 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Crash states verified per calibrated host second. Each (scheme, crash
   workload) pair counts its median time over the run's sweeps: the pool
   now and then takes several times longer on one pair, and the figure
   should say how fast sweeps usually run, not how many of those fell
   into one run. *)
let states_rate p =
  let n, s =
    List.fold_left
      (fun (n, s) (scheme, name) ->
        let key = Printf.sprintf "%s.%s" (scheme_name scheme) name in
        (n +. get p ("sweep." ^ key ^ ".states"), s +. median p ("sweep_s." ^ key)))
      (0.0, 0.0)
      (List.concat_map
         (fun scheme -> List.map (fun name -> (scheme, name)) crash_workloads)
         p.sz.schemes)
  in
  ratio n s

(* (name, unit, value): every end-to-end metric. *)
let end_to_end p =
  let lat = sorted p "sim_latency_ms" in
  [ ("setup_s", "s", get p "setup_s");
    ("syscalls_per_host_s", "1/s", ratio (get p "syscalls") (get p "host.steady_s"));
    ("states_per_host_s", "1/s", states_rate p);
    ("recovery_s", "s", median p "recovery_s");
    ("heap_peak_mb", "MB", get p "heap_peak_mb");
    ("ok_frac", "frac", ratio (float_of_int (p.attempted - p.failed)) (float_of_int p.attempted));
    ("sim_p50_ms", "ms", pct lat 0.5);
    ("sim_p99_ms", "ms", pct lat 0.99) ]
  @ List.map
      (fun s ->
        let n = "sim_elapsed_s." ^ scheme_name s in
        (n, "s", get p n))
      Fs.all_schemes

(* Figures of the simulation alone: a traced pass must reproduce every
   one bit for bit. *)
let simulated p =
  let lat k q = pct (sorted p k) q in
  [ ("sim_p50_ms", lat "sim_latency_ms" 0.5); ("sim_p99_ms", lat "sim_latency_ms" 0.99);
    ("gen.late_ms.p99", lat "gen.late_ms" 0.99) ]
  @ List.concat_map
      (fun op ->
        let k = "fsops." ^ op_name op in
        [ (k ^ ".sim_p50_ms", lat k 0.5); (k ^ ".sim_p99_ms", lat k 0.99) ])
      (Array.to_list ops)
  @ List.filter_map
      (fun (k, v) ->
        let simulated =
          List.exists
            (fun pre -> String.starts_with ~prefix:pre k)
            [ "sim_elapsed_s."; "paper."; "syscalls"; "sim.span_s"; "cache."; "cpu."; "disk.";
              "softdep."; "driver."; "syncer."; "sweep."; "fsck.inodes" ]
        in
        if simulated && k <> "cache.used_frags_max" then Some (k, v)
        else None)
      (List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) p.acc []))

(* (name, unit, value): every per-layer metric. [u] is the untraced
   pass (counts, host rates), [t] the traced one (probes, spans). *)
let per_layer u t ~self =
  let g = get u and tg = get t in
  let calls = g "syscalls" in
  let per_op = calls +. g "states_verified" in
  let lat k q = pct (sorted u k) q in
  let e2e_u = end_to_end u and e2e_t = end_to_end t in
  [ ("engine.events_per_syscall", "count", ratio (g "engine.events") calls);
    ("engine.host_ns_per_event", "ns", ratio (g "host.steady_s" *. 1e9) (g "engine.events"));
    ("engine.pending_max", "count", tg "engine.pending_max");
    ("cpu.busy_s", "s", g "cpu.busy_s") ]
  @ List.concat_map
      (fun op ->
        let k = "fsops." ^ op_name op in
        [ (k ^ ".sim_p50_ms", "ms", lat k 0.5); (k ^ ".sim_p99_ms", "ms", lat k 0.99);
          (k ^ ".samples", "count", float_of_int (Array.length (sorted u k))) ])
      (Array.to_list ops)
  @ [ ("sim_latency.samples", "count", float_of_int (Array.length (sorted u "sim_latency_ms")));
      ("fsops.host_us_per_call", "us", ratio (g "host.steady_s" *. 1e6) calls);
      ("gen.late_ms.p99", "ms", lat "gen.late_ms" 0.99);
      ("cache.hit_ratio", "frac", ratio (g "cache.hits") (g "cache.hits" +. g "cache.misses"));
      ("cache.evictions", "count", g "cache.evictions");
      ("cache.used_frags_max", "frags", tg "cache.used_frags_max");
      ("cache.dirty_max", "bufs", g "cache.dirty_max");
      ("syncer.passes", "count", g "syncer.passes");
      ("syncer.writes_per_syscall", "count", ratio (g "syncer.writes") (g "syncer.syscalls"));
      ("driver.writes_per_syscall", "count", ratio (g "driver.writes") calls);
      ("driver.queue_ms_mean", "ms", ratio (g "driver.queue_ms_sum") (g "driver.requests"));
      ("driver.sync_response_ms", "ms",
       ratio (g "driver.sync_response_ms_sum") (g "driver.sync_requests"));
      ("driver.qdepth_max", "count", g "driver.qdepth_max");
      ("disk.busy_s", "s", g "disk.busy_s");
      ("disk.seek_s", "s", g "disk.seek_s");
      ("disk.rot_wait_s", "s", g "disk.rot_wait_s");
      ("disk.transfer_s", "s", g "disk.transfer_s");
      ("disk.utilization", "frac", ratio (g "disk.busy_s") (g "sim.span_s"));
      ("softdep.deps_created", "count", g "softdep.deps_created");
      ("softdep.rollbacks_per_write", "count",
       ratio (g "softdep.rollbacks") (g "driver.soft_writes"));
      ("fsck.check_s", "s", median u "fsck.check_s");
      ("fsck.repair_s", "s", median u "fsck.repair_s");
      ("fsck.remount_s", "s", median u "fsck.remount_s");
      ("fsck.check_us_per_inode", "us", ratio (median u "fsck.check_s" *. 1e6) (g "fsck.inodes"));
      ("fsck.check_ms", "ms", median t "fsck.check_ms");
      ("fsck.repair_ms", "ms", median t "fsck.repair_ms");
      ("fsck.remount_ms", "ms", median t "fsck.remount_ms");
      ("explorer.record_s", "s", g "explorer.record_s");
      ("delta.seek_us_per_state", "us",
       ratio (Array.fold_left ( +. ) 0.0 (sorted t "delta.seek_us"))
         (float_of_int (Array.length (sorted t "delta.seek_us"))));
      ("explorer.verify_ms_per_state.p50", "ms", pct (sorted t "explorer.verify_ms") 0.5);
      ("explorer.verify_ms_per_state.p99", "ms", pct (sorted t "explorer.verify_ms") 0.99);
      ("pool.busy_frac", "frac", ratio (tg "pool.task_s") (float_of_int jobs *. tg "pool.wall_s"));
      ("gc.minor_words_per_op", "words", ratio (g "gc.minor_words") per_op);
      ("gc.minor_collections", "count", g "gc.minor_collections");
      ("gc.major_collections", "count", g "gc.major_collections");
      ("gc.promoted_words", "words", g "gc.promoted_words");
      ("volume.mkfs_s", "s", median u "volume.mkfs_s");
      ("volume.slab_bytes", "bytes", g "volume.slab_bytes");
      ("gauge.host_speed", "frac", ratio Gauge.nominal (median u "gauge.s")) ]
  @ List.map
      (fun layer ->
        ( "self_s." ^ layer, "s",
          Option.value ~default:0.0 (Hashtbl.find_opt self layer) ))
      [ "phase"; "volume"; "fsops"; "explorer"; "pool"; "delta"; "fsck"; "mount" ]
  @ List.filter_map
      (fun ((n, unit, v), (_, _, v')) ->
        if String.starts_with ~prefix:"sim_" n || n = "ok_frac" then None
        else Some ("overhead." ^ n, unit, v' -. v))
      (List.combine e2e_u e2e_t)

(* --- main --------------------------------------------------------------- *)

let json_metrics ms =
  Su_obs.Json.Obj
    (List.map
       (fun (n, unit, v) ->
         (n, Su_obs.Json.Obj [ ("value", Su_obs.Json.Float v); ("unit", Su_obs.Json.Str unit) ]))
       ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0 and trace = ref 0 in
  let work_dir = ref "." in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring budget (the workloads are fixed-size)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--work-dir", Arg.Set_string work_dir, "DIR for the crashed image and a traced run's spans") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let sz =
    match List.assoc_opt !workload workloads with
    | Some sz -> sz
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace takes 0 or 1"; exit 2);
  image_path := Filename.concat !work_dir (Printf.sprintf "crash-image-%d.bin" (Unix.getpid ()));
  let u = run_pass ~seed:!seed ~sz ~traced:false in
  let result, metrics =
    if !trace = 0 then (u, end_to_end u)
    else begin
      let t = run_pass ~seed:!seed ~sz ~traced:true in
      let spans = Spans.all () in
      Spans.write
        (Filename.concat !work_dir (Printf.sprintf "spans-%s-%d.tsv" !workload !seed))
        spans;
      let su = simulated u and st = simulated t in
      let bits = Int64.bits_of_float in
      let differ =
        List.filter
          (fun (k, v) -> Option.map bits (List.assoc_opt k st) <> Some (bits v))
          su
        @ List.filter (fun (k, _) -> not (List.mem_assoc k su)) st
      in
      List.iter
        (fun (k, v) ->
          Printf.eprintf "perfbench: traced pass changed %s (%.17g -> %s)\n" k v
            (match List.assoc_opt k st with Some v' -> Printf.sprintf "%.17g" v' | None -> "absent"))
        differ;
      check t "tracing leaves every simulated figure bit-identical" (differ = []);
      t.checks <- t.checks @ u.checks;
      (t, per_layer u t ~self:(Spans.self_times spans))
    end
  in
  let correct = List.for_all snd result.checks && u.failed = 0 && result.failed = 0 in
  Hashtbl.iter (fun k n -> Printf.eprintf "perfbench: %d failed: %s\n" n k) result.errors;
  List.iter
    (fun (n, unit, v) -> Printf.printf "%-36s %16.6f %s\n" n v unit)
    metrics;
  Printf.printf "%-36s %16d samples\n" "sim_latency" (Array.length (sorted u "sim_latency_ms"));
  Printf.printf "%-36s %16d\n" "checks_passed" (List.length (List.filter snd result.checks));
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  if not finite then prerr_endline "perfbench: a metric is not finite";
  print_endline
    (Su_obs.Json.to_string
       (Su_obs.Json.Obj
          [ ("correct", Su_obs.Json.Bool (correct && finite));
            ("attempted", Su_obs.Json.Int result.attempted);
            ("failed", Su_obs.Json.Int result.failed);
            ( "metrics",
              json_metrics
                (List.map (fun (n, unit, v) -> (n, unit, if Float.is_finite v then v else 0.0)) metrics) ) ]))
