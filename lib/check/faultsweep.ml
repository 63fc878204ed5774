open Su_fs

(* Systematic permanent-fault campaign (the fault-tolerance analogue
   of the crash sweep in {!Explorer}), a planner on {!Campaign}: one
   fault-free run discovers every distinct media sector a workload
   touches; the workload is then re-run once per sector with that
   sector permanently bad, and each run must survive or fail clean. *)

(* Reads and writes both: a latent bad sector under a read-only
   fragment is just as real. *)
let touched_sectors ~cfg wl =
  let reads, writes = Campaign.touched_sectors ~cfg wl.Explorer.wl_run in
  Array.of_list
    (List.sort_uniq compare (Array.to_list reads @ Array.to_list writes))

type verdict = {
  fv_sector : int;
  fv_outcome : Campaign.outcome;
  fv_remaps : int;
  fv_judged : Campaign.judgement;
}

let fv_clean v = Campaign.judged_clean v.fv_outcome v.fv_judged

let run_one ~cfg ~spares wl sector =
  let cfg =
    { cfg with
      Fs.fault = { Su_disk.Fault.none with bad_sectors = [ sector ] };
      spare_frags = spares;
      keep_trace_records = false }
  in
  let w = Fs.make cfg in
  let outcome = Campaign.run_workload w wl.Explorer.wl_run in
  (* the remap table is metadata: verify on the logical view, exactly
     what a replacement drive would be rebuilt with *)
  let judged =
    Campaign.judge ~campaign:"faultsweep" ~cfg
      ~remount_cfg:(Campaign.clean_device cfg) outcome
      (Su_disk.Disk.logical_snapshot w.Fs.disk)
  in
  {
    fv_sector = sector;
    fv_outcome = outcome;
    fv_remaps = Su_disk.Disk.remaps w.Fs.disk;
    fv_judged = judged;
  }

type summary = {
  fs_scheme : Fs.scheme_kind;
  fs_workload : string;
  fs_sectors : int;
  fs_tally : Campaign.tally;
  fs_remaps : int;
  fs_verdicts : verdict list;
}

let ok s = s.fs_tally.escaped = 0 && s.fs_tally.violations = 0

let sweep ?jobs ?(spares = 64) ?max_sectors ?fail_fast ~cfg wl =
  let sectors = touched_sectors ~cfg wl in
  let verdicts =
    Campaign.fan_out ?jobs ?cap:max_sectors ?fail_fast ~clean:fv_clean
      ~init:ignore (Array.length sectors) (fun () i ->
        run_one ~cfg ~spares wl sectors.(i))
  in
  {
    fs_scheme = cfg.Fs.scheme;
    fs_workload = wl.Explorer.wl_name;
    fs_sectors = Array.length sectors;
    fs_tally =
      Campaign.tally ~outcome:(fun v -> v.fv_outcome) ~clean:fv_clean verdicts;
    fs_remaps = List.fold_left (fun a v -> a + v.fv_remaps) 0 verdicts;
    fs_verdicts = verdicts;
  }
