open Su_fs

(* Systematic silent-corruption campaign (the integrity analogue of
   {!Faultsweep}), a planner on {!Campaign}. One fault-free recording
   run splits the sectors a workload touches into read-touched and
   write-touched sets; the sweep then re-runs the workload — checksums on — once per touched
   sector per silent-fault class (bit-flipped read on a read-touched
   sector; lost or misdirected write on a write-touched one), and
   asserts detect-and-repair or fail-clean: either every operation
   completes, the final image fscks clean {e and} matches the caller's
   model oracle bit-for-bit (the fault was detected and healed), or
   the run stops with a typed error and the surviving state repairs,
   remounts and stays clean. A fault that slips through to a diverged
   Completed image — a {e silent escape} — is always a violation, as
   is an untyped exception or a hang. *)

type silent_class = Flip | Lost | Misdirect

let class_name = function
  | Flip -> "flip"
  | Lost -> "lost"
  | Misdirect -> "misdirect"

(* Discovery runs the sweep's own configuration, checksums on, so the
   access pattern is the injected runs'. *)
let touched_sectors ~cfg wl =
  Campaign.touched_sectors ~cfg:{ cfg with Fs.checksums = true }
    wl.Explorer.wl_run

(* The injection plan: one flip per read-touched sector, one lost and
   one misdirected write per write-touched sector. A misdirection
   needs a victim; the next write-touched sector (wrapping) is chosen
   so the clobbered fragment is one the file system demonstrably
   cares about. Sectors with no distinct victim fall back to Lost. *)
type injection = { inj_class : silent_class; inj_sector : int; inj_victim : int }

let plan ~reads ~writes =
  let flips =
    Array.to_list
      (Array.map
         (fun s -> { inj_class = Flip; inj_sector = s; inj_victim = -1 })
         reads)
  in
  let n = Array.length writes in
  let lost =
    Array.to_list
      (Array.map
         (fun s -> { inj_class = Lost; inj_sector = s; inj_victim = -1 })
         writes)
  in
  let misdirect =
    Array.to_list
      (Array.mapi
         (fun i s ->
           let victim = if n > 1 then writes.((i + 1) mod n) else -1 in
           if victim < 0 then { inj_class = Lost; inj_sector = s; inj_victim = -1 }
           else { inj_class = Misdirect; inj_sector = s; inj_victim = victim })
         writes)
  in
  Array.of_list (flips @ lost @ misdirect)

(* --- one run under one injected silent fault -------------------------- *)

type verdict = {
  cv_sector : int;
  cv_class : silent_class;
  cv_victim : int;  (** misdirection victim, [-1] otherwise *)
  cv_outcome : Campaign.outcome;
  cv_injected : bool;  (** the one-shot fault actually fired *)
  cv_detected : int;  (** checksum mismatches the run observed *)
  cv_repaired : int;  (** fragments the online ladder healed *)
  cv_judged : Campaign.judgement;
  cv_divergences : int;  (** model-oracle mismatches on the final image *)
}

(* Detect-and-repair or fail-clean, per verdict. A completed run must
   leave nothing to repair and agree with the model (the injection
   must also have fired — a plan entry that never triggers would make
   the campaign vacuous); a typed failure may lose data but must
   leave a repairable, remountable volume; an escape never passes. *)
let cv_clean v =
  Campaign.judged_clean v.cv_outcome v.cv_judged
  &&
  match v.cv_outcome with
  | Completed -> v.cv_injected && v.cv_divergences = 0
  | Failed_typed _ | Escaped _ -> true

(* A Completed verdict whose image diverged from the model: the
   corruption went fully undetected. The summary counts these
   separately — they are the one thing checksums exist to prevent. *)
let cv_silent_escape v =
  match v.cv_outcome with
  | Completed -> v.cv_injected && v.cv_divergences > 0
  | Failed_typed _ | Escaped _ -> false

let fault_of_injection inj =
  match inj.inj_class with
  | Flip -> { Su_disk.Fault.none with flip_at = [ inj.inj_sector ] }
  | Lost -> { Su_disk.Fault.none with lose_at = [ inj.inj_sector ] }
  | Misdirect ->
    { Su_disk.Fault.none with
      misdirect_at = [ (inj.inj_sector, inj.inj_victim) ] }

let run_one ~cfg ~spares ~oracle wl inj =
  let cfg =
    { cfg with
      Fs.fault = fault_of_injection inj;
      checksums = true;
      spare_frags = spares;
      keep_trace_records = false }
  in
  let w = Fs.make cfg in
  (* the workload ended in a sync; a lost or misdirected write the
     foreground never re-read is still latent on the media — surface
     it now, while the cache's clean copies are alive to repair from *)
  let finish w =
    match w.Fs.integrity with
    | Some integ ->
      let unrepaired = Integrity.full_verify integ in
      if unrepaired = 0 then None
      else
        Some
          (Printf.sprintf "integrity: %d fragment(s) unrecoverable" unrepaired)
    | None -> None
  in
  let outcome = Campaign.run_workload ~finish w wl.Explorer.wl_run in
  let detected, repaired =
    match w.Fs.integrity with
    | Some i -> (Integrity.mismatches i, Integrity.repaired i)
    | None -> (0, 0)
  in
  let image = Su_disk.Disk.logical_snapshot w.Fs.disk in
  (* checksums still on at the remount, so every probe read
     re-verifies *)
  let judged =
    Campaign.judge ~campaign:"corruptsweep" ~cfg
      ~remount_cfg:(Campaign.clean_device cfg) outcome image
  in
  {
    cv_sector = inj.inj_sector;
    cv_class = inj.inj_class;
    cv_victim = inj.inj_victim;
    cv_outcome = outcome;
    cv_injected = Su_disk.Disk.silent_faults w.Fs.disk > 0;
    cv_detected = detected;
    cv_repaired = repaired;
    cv_judged = judged;
    cv_divergences =
      (* the oracle only constrains runs that claim success *)
      (match outcome with
       | Completed -> List.length (oracle image)
       | Failed_typed _ | Escaped _ -> 0);
  }

(* --- the campaign ----------------------------------------------------- *)

type summary = {
  cs_scheme : Fs.scheme_kind;
  cs_workload : string;
  cs_read_sectors : int;  (** distinct read-touched sectors *)
  cs_write_sectors : int;  (** distinct write-touched sectors *)
  cs_planned : int;  (** injections in the full plan *)
  cs_tally : Campaign.tally;
  cs_detected : int;  (** checksum mismatches observed across runs *)
  cs_repaired : int;  (** fragments healed online across runs *)
  cs_silent_escapes : int;  (** Completed-but-diverged verdicts *)
  cs_verdicts : verdict list;  (** per-injection detail, plan order *)
}

let ok s =
  s.cs_tally.escaped = 0 && s.cs_silent_escapes = 0
  && s.cs_tally.violations = 0

let sweep ?jobs ?(spares = 64) ?max_injections ?fail_fast ~cfg ~oracle wl =
  let reads, writes = touched_sectors ~cfg wl in
  let injections = plan ~reads ~writes in
  let verdicts =
    Campaign.fan_out ?jobs ?cap:max_injections ?fail_fast ~clean:cv_clean
      ~init:ignore (Array.length injections) (fun () i ->
        run_one ~cfg ~spares ~oracle wl injections.(i))
  in
  let count p = List.length (List.filter p verdicts) in
  let sum f = List.fold_left (fun a v -> a + f v) 0 verdicts in
  {
    cs_scheme = cfg.Fs.scheme;
    cs_workload = wl.Explorer.wl_name;
    cs_read_sectors = Array.length reads;
    cs_write_sectors = Array.length writes;
    cs_planned = Array.length injections;
    cs_tally =
      Campaign.tally ~outcome:(fun v -> v.cv_outcome) ~clean:cv_clean verdicts;
    cs_detected = sum (fun v -> v.cv_detected);
    cs_repaired = sum (fun v -> v.cv_repaired);
    cs_silent_escapes = count cv_silent_escape;
    cs_verdicts = verdicts;
  }
