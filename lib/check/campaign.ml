open Su_sim
open Su_fs

(* The engine shared by the crash sweep ({!Explorer}), the permanent-
   fault campaign ({!Faultsweep}) and the silent-corruption campaign
   ({!Corruptsweep}): run a workload to quiescence and classify it,
   judge the surviving image, fan the plan out over a domain pool. *)

let compact_cfg scheme =
  {
    (Fs.config ~scheme ()) with
    Fs.geom = Su_fstypes.Geom.v ~mb:32 ~cg_mb:16 ~inodes_per_cg:1024 ();
    cache_mb = 4;
    journal_mb = 2;
  }

let check_exposure cfg =
  match cfg.Fs.scheme with
  | Fs.Journaled _ -> false
  | Fs.Conventional | Fs.Scheduler_flag | Fs.Scheduler_chains _
  | Fs.Soft_updates | Fs.No_order ->
    cfg.Fs.alloc_init

(* --- running a workload ----------------------------------------------- *)

type outcome =
  | Completed
  | Failed_typed of string
  | Escaped of string

let outcome_name = function
  | Completed -> "completed"
  | Failed_typed _ -> "failed-typed"
  | Escaped _ -> "escaped"

type tally = {
  swept : int;
  completed : int;
  failed_typed : int;
  escaped : int;
  violations : int;
}

let tally ~outcome ~clean verdicts =
  List.fold_left
    (fun t v ->
      let t =
        match outcome v with
        | Completed -> { t with completed = t.completed + 1 }
        | Failed_typed _ -> { t with failed_typed = t.failed_typed + 1 }
        | Escaped _ -> { t with escaped = t.escaped + 1 }
      in
      { t with
        swept = t.swept + 1;
        violations = (if clean v then t.violations else t.violations + 1) })
    { swept = 0; completed = 0; failed_typed = 0; escaped = 0; violations = 0 }
    verdicts

let rec typed_failure = function
  | Proc.Process_failure (_, e) -> typed_failure e
  | Fsops.Eio msg -> Some ("Eio: " ^ msg)
  | Fsops.Erofs msg -> Some ("Erofs: " ^ msg)
  | Su_cache.Bcache.Io_error e ->
    Some ("Io_error: " ^ Su_disk.Fault.error_to_string e)
  | Fs.Mount_failure msg -> Some ("Mount_failure: " ^ msg)
  | _ -> None

let classify e =
  match typed_failure e with
  | Some msg -> Failed_typed msg
  | None -> Escaped (Printexc.to_string e)

let run_workload ?(finish = fun _ -> None) w body =
  let outcome = ref (Escaped "hang: event queue drained mid-run") in
  let controller () =
    (outcome :=
       match
         body w.Fs.st;
         finish w
       with
       | None -> Completed
       | Some msg -> Failed_typed msg
       | exception e -> classify e);
    (* quiesce whatever survives; a typed flush failure here does not
       change the outcome already taken *)
    (try
       Fs.stop w;
       Su_driver.Driver.quiesce w.Fs.driver
     with e -> if typed_failure e = None then raise e);
    Engine.stop w.Fs.engine
  in
  ignore (Proc.spawn w.Fs.engine ~name:"controller" controller);
  (try Engine.run w.Fs.engine
   with Proc.Process_failure (_, e) -> outcome := classify e);
  !outcome

let expect_completed = function
  | Completed -> ()
  | Failed_typed msg | Escaped msg -> failwith msg

(* One fault-free run with driver trace records kept; the touched sets
   are the unions of every request's [lbn, lbn+nfrags) extent, split
   by direction (a latent bad sector under a read-only fragment is
   just as real as one under a write). Ascending, so every plan built
   on them is deterministic. *)
let touched_sectors ~cfg body =
  let cfg =
    { cfg with Fs.fault = Su_disk.Fault.none; keep_trace_records = true }
  in
  let w = Fs.make cfg in
  expect_completed (run_workload w body);
  let reads = Hashtbl.create 1024 and writes = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      let tbl =
        match r.Su_driver.Trace.r_kind with
        | Su_driver.Request.Read -> reads
        | Su_driver.Request.Write -> writes
      in
      for i = 0 to r.Su_driver.Trace.r_nfrags - 1 do
        Hashtbl.replace tbl (r.Su_driver.Trace.r_lbn + i) ()
      done)
    (Su_driver.Trace.records (Su_driver.Driver.trace w.Fs.driver));
  let sorted tbl =
    Array.of_list
      (List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) tbl []))
  in
  (sorted reads, sorted writes)

(* --- the judging tail -------------------------------------------------- *)

let check_clean cfg image =
  Fs.recover_image cfg image;
  Fsck.ok
    (Fsck.check ~geom:cfg.Fs.geom ~image ~check_exposure:(check_exposure cfg))

let clean_device cfg =
  { cfg with
    Fs.fault = Su_disk.Fault.none;
    spare_frags = 0;
    scrub_interval = 0.0 }

(* Remount the (repaired) image and keep living in it: a directory
   create, file writes, a rename and a sync must all succeed, and the
   image must still check out clean afterwards. *)
let remount_and_continue ~campaign ~cfg image =
  try
    let w = Fs.mount_image cfg image in
    let d = "/" ^ campaign ^ ".d" in
    run_workload w (fun st ->
        Fsops.mkdir st d;
        Fsops.create st (d ^ "/probe");
        Fsops.append st (d ^ "/probe") ~bytes:3072;
        Fsops.rename st ~src:(d ^ "/probe") ~dst:(d ^ "/probe2");
        Fsops.sync st)
    = Completed
    && check_clean cfg (Su_disk.Disk.image_snapshot w.Fs.disk)
  with _ -> false

type judgement = {
  pre_violations : int;
  repair_converged : bool;
  post_violations : int;
  remount_ok : bool;
}

let judge ?observer ~campaign ~cfg ~remount_cfg outcome image =
  (* journaled configurations replay the log before checking, exactly
     as mount-time recovery would *)
  Fs.recover_image ?observer cfg image;
  let exposure = check_exposure cfg in
  let count (r : Fsck.report) = List.length r.Fsck.violations in
  (* repair's first round checks the image as recovery left it, so its
     report is the pre-repair verdict *)
  let pre, repair_converged, post_violations =
    match outcome with
    | Completed ->
      let pre =
        count (Fsck.check ~geom:cfg.Fs.geom ~image ~check_exposure:exposure)
      in
      (pre, true, pre)
    | Failed_typed _ | Escaped _ ->
      let o =
        Fsck.repair ?observer ~geom:cfg.Fs.geom ~image
          ~check_exposure:exposure ()
      in
      (count o.Fsck.initial, o.Fsck.converged, count o.Fsck.final)
  in
  let remount_ok =
    match outcome with
    | Escaped _ -> false
    | Completed | Failed_typed _ ->
      remount_and_continue ~campaign ~cfg:remount_cfg image
  in
  { pre_violations = pre; repair_converged; post_violations; remount_ok }

let judged_clean outcome j =
  match outcome with
  | Completed -> j.pre_violations = 0 && j.remount_ok
  | Failed_typed _ ->
    j.repair_converged && j.post_violations = 0 && j.remount_ok
  | Escaped _ -> false

(* --- the fan-out -------------------------------------------------------- *)

let fail_fast_chunk = 8

let fan_out ?(jobs = 1) ?cap ?(fail_fast = false) ?(clean = fun _ -> true)
    ~init n run =
  let n = match cap with Some m -> min (max m 0) n | None -> n in
  if not fail_fast then Array.to_list (Su_util.Pool.map_with ~jobs ~init n run)
  else
    (* whole chunks, truncated just past the first unclean verdict *)
    let rec go start acc =
      if start >= n then List.rev acc
      else
        let len = min fail_fast_chunk (n - start) in
        let chunk =
          Su_util.Pool.map_with ~jobs ~init len (fun s i -> run s (start + i))
        in
        let rec keep acc i =
          if i = len then go (start + len) acc
          else
            let v = chunk.(i) in
            if clean v then keep (v :: acc) (i + 1) else List.rev (v :: acc)
        in
        keep acc 0
    in
    go 0 []
