(* Online fault tolerance end to end: the faultsweep campaign and its
   determinism under --jobs, remap-heavy runs with zero model
   divergence, the typed Eio/Erofs syscall boundary, superblock
   replica restore at mount, and the background scrubber. *)
open Su_sim
open Su_fstypes
open Su_fs
module Campaign = Su_check.Campaign
module Faultsweep = Su_check.Faultsweep
module Explorer = Su_check.Explorer
module Fuzz = Su_workload.Fuzz

let compact_cfg () = Campaign.compact_cfg Fs.Soft_updates

(* --- the campaign ----------------------------------------------------- *)

let test_sweep_survives_or_fails_clean () =
  let wl = Option.get (Explorer.find_workload "renamefile") in
  let s =
    Faultsweep.sweep ~jobs:1 ~spares:8 ~max_sectors:10 ~cfg:(compact_cfg ()) wl
  in
  Alcotest.(check bool) "campaign passes" true (Faultsweep.ok s);
  let t = s.Faultsweep.fs_tally in
  Alcotest.(check int) "capped sector count" 10 t.Campaign.swept;
  Alcotest.(check bool) "touched set is larger" true
    (s.Faultsweep.fs_sectors > 10);
  Alcotest.(check int) "no escapes" 0 t.Campaign.escaped;
  Alcotest.(check int) "every run accounted" t.Campaign.swept
    (t.Campaign.completed + t.Campaign.failed_typed + t.Campaign.escaped)

let test_sweep_deterministic_across_jobs () =
  let wl = Option.get (Explorer.find_workload "renamefile") in
  let sweep jobs =
    Faultsweep.sweep ~jobs ~spares:8 ~max_sectors:8 ~cfg:(compact_cfg ()) wl
  in
  let s1 = sweep 1 and s2 = sweep 2 in
  Alcotest.(check bool) "identical summaries at any --jobs" true (s1 = s2)

(* --- remap-heavy run: completes with zero model divergence ------------ *)

let test_remap_heavy_zero_divergence () =
  let cfg = compact_cfg () in
  let ops = Fuzz.gen ~seed:5 ~ops:14 in
  let wl = Fuzz.workload_of_ops ~name:"remapheavy" ops in
  (* data fragments are write-first (allocation initialisation), so
     faulting them exercises the remap path, never a read failure *)
  let recording = Explorer.record ~cfg wl in
  let data_lbns =
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun (lbn, cells) ->
        Array.iteri
          (fun i c ->
            match c with
            | Types.Frag _ when Hashtbl.length seen < 4 ->
              Hashtbl.replace seen (lbn + i) ()
            | _ -> ())
          cells)
      (Explorer.rec_writes recording);
    Hashtbl.fold (fun k () acc -> k :: acc) seen []
  in
  Alcotest.(check bool) "found data fragments to fault" true
    (List.length data_lbns >= 2);
  let faulty =
    { cfg with
      Fs.fault = { Su_disk.Fault.none with bad_sectors = data_lbns };
      spare_frags = 16 }
  in
  let w = Fs.make faulty in
  Campaign.expect_completed (Campaign.run_workload w wl.Explorer.wl_run);
  Alcotest.(check int) "every bad fragment remapped"
    (List.length data_lbns)
    (Su_disk.Disk.remaps w.Fs.disk);
  Alcotest.(check int) "health stayed clean" 0
    (Health.io_errors w.Fs.st.State.health);
  (* the logical image — remapped content resolved home, as a rebuilt
     replacement drive would hold it — must match the model exactly *)
  let image = Su_disk.Disk.logical_snapshot w.Fs.disk in
  Fs.recover_image cfg image;
  Alcotest.(check bool) "fsck clean" true
    (Fsck.ok (Fsck.check ~geom:cfg.Fs.geom ~image ~check_exposure:true));
  let clean_cfg =
    { cfg with Fs.fault = Su_disk.Fault.none; spare_frags = 0 }
  in
  Alcotest.(check (list string)) "zero model divergence" []
    (Fuzz.check_final_image ~cfg:clean_cfg image ops)

(* --- the typed syscall boundary --------------------------------------- *)

let test_readonly_refuses_mutation () =
  let cfg = { (compact_cfg ()) with Fs.geom = Geom.small } in
  let w = Fs.make cfg in
  match
    Campaign.run_workload w (fun st ->
        Fsops.create st "/before";
        Health.force_readonly st.State.health ~reason:"test";
        (* reads and flushes still work *)
        ignore (Fsops.stat st "/before");
        ignore (Fsops.readdir st "/");
        Fsops.sync st;
        Fsops.create st "/after")
  with
  | Campaign.Failed_typed msg ->
    Alcotest.(check string) "typed Erofs naming the path" "Erofs: /after" msg
  | Campaign.Escaped msg -> Alcotest.fail ("expected Erofs, got " ^ msg)
  | Campaign.Completed -> Alcotest.fail "mutation succeeded on a read-only volume"

let test_unreadable_metadata_raises_eio () =
  let cfg = { (compact_cfg ()) with Fs.geom = Geom.small } in
  let root_block = fst (Geom.cg_data_area cfg.Fs.geom 0) in
  let cfg =
    { cfg with
      Fs.fault = { Su_disk.Fault.none with bad_sectors = [ root_block ] } }
  in
  let w = Fs.make cfg in
  (match Campaign.run_workload w (fun st -> Fsops.create st "/victim") with
   | Campaign.Failed_typed msg when String.starts_with ~prefix:"Eio: " msg -> ()
   | Campaign.Failed_typed msg | Campaign.Escaped msg ->
     Alcotest.fail ("expected Eio, got " ^ msg)
   | Campaign.Completed ->
     Alcotest.fail "create over an unreadable root should fail");
  Alcotest.(check bool) "health heard the failure" true
    (Health.io_errors w.Fs.st.State.health > 0);
  Alcotest.(check bool) "volume degraded" true
    (Health.level w.Fs.st.State.health = Health.Degraded)

(* --- superblock replicas at mount ------------------------------------- *)

let is_superblock = function
  | Types.Meta (Types.Superblock _) -> true
  | _ -> false

let test_mount_restores_corrupt_replica () =
  let cfg = { (compact_cfg ()) with Fs.geom = Geom.small } in
  let w0 = Fs.make cfg in
  let image = Su_disk.Disk.image_snapshot w0.Fs.disk in
  let victim = Geom.cg_sb_frag cfg.Fs.geom 1 in
  image.(victim) <- Types.Frag Types.Zeroed;
  let w = Fs.mount_image cfg image in
  Alcotest.(check int) "one replica restored" 1
    (Health.sb_restored w.Fs.st.State.health);
  Alcotest.(check bool) "volume degraded, not dead" true
    (Health.level w.Fs.st.State.health = Health.Degraded);
  Alcotest.(check bool) "the copy is a superblock again" true
    (is_superblock (Su_disk.Disk.peek w.Fs.disk victim))

let test_mount_fails_clean_without_replicas () =
  let cfg = { (compact_cfg ()) with Fs.geom = Geom.small } in
  let w0 = Fs.make cfg in
  let image = Su_disk.Disk.image_snapshot w0.Fs.disk in
  for c = 0 to Geom.cg_count cfg.Fs.geom - 1 do
    image.(Geom.cg_sb_frag cfg.Fs.geom c) <- Types.Frag Types.Zeroed
  done;
  match Fs.mount_image cfg image with
  | _ -> Alcotest.fail "mount should refuse without a usable superblock"
  | exception Fs.Mount_failure _ -> ()

(* --- the background scrubber ------------------------------------------ *)

let test_scrub_repairs_latent_sb_fault () =
  (* group 0's superblock copy (fragment 0) is latently bad: nothing
     reads it at runtime, so only the scrubber can find it — and must
     heal it from a sister copy via a remapping rewrite *)
  let cfg =
    { (compact_cfg ()) with
      Fs.geom = Geom.small;
      fault = { Su_disk.Fault.none with bad_sectors = [ 0 ] };
      spare_frags = 8;
      scrub_interval = 0.01 }
  in
  let w = Fs.make cfg in
  Campaign.expect_completed
    (Campaign.run_workload w (fun _ -> Proc.sleep w.Fs.engine 0.2));
  let s = Option.get w.Fs.scrub in
  Alcotest.(check bool) "fragments probed" true (Scrub.scanned s > 0);
  Alcotest.(check int) "the latent bad sector found" 1 (Scrub.found s);
  Alcotest.(check int) "repaired from the sister replica" 1 (Scrub.repaired s);
  Alcotest.(check int) "nothing lost" 0 (Scrub.lost s);
  Alcotest.(check int) "healed via a remap" 1 (Su_disk.Disk.remaps w.Fs.disk);
  Alcotest.(check int) "health records the restore" 1
    (Health.sb_restored w.Fs.st.State.health);
  Alcotest.(check bool) "the copy reads back as a superblock" true
    (is_superblock (Su_disk.Disk.peek w.Fs.disk 0))

let test_no_scrubber_by_default () =
  let w = Fs.make (compact_cfg ()) in
  Alcotest.(check bool) "scrub off unless configured" true (w.Fs.scrub = None)

let suite =
  [
    Alcotest.test_case "campaign survives or fails clean" `Quick
      test_sweep_survives_or_fails_clean;
    Alcotest.test_case "campaign deterministic across jobs" `Quick
      test_sweep_deterministic_across_jobs;
    Alcotest.test_case "remap-heavy run, zero model divergence" `Quick
      test_remap_heavy_zero_divergence;
    Alcotest.test_case "read-only volume refuses mutation" `Quick
      test_readonly_refuses_mutation;
    Alcotest.test_case "unreadable metadata raises Eio" `Quick
      test_unreadable_metadata_raises_eio;
    Alcotest.test_case "mount restores a corrupt replica" `Quick
      test_mount_restores_corrupt_replica;
    Alcotest.test_case "mount fails clean without replicas" `Quick
      test_mount_fails_clean_without_replicas;
    Alcotest.test_case "scrubber heals a latent superblock fault" `Quick
      test_scrub_repairs_latent_sb_fault;
    Alcotest.test_case "no scrubber by default" `Quick
      test_no_scrubber_by_default;
  ]
