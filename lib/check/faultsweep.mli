(** Systematic permanent-fault campaign.

    The fault-tolerance analogue of the crash sweep in {!Explorer}, a
    planner on {!Campaign}: one fault-free recording run discovers
    every distinct media sector a workload touches (reads included),
    then the workload is re-run once per sector with that sector
    permanently bad — and a configurable spare pool for the remap
    machinery to absorb it with.
    Each run must {e survive or fail clean}: either every operation
    completes, or the run stops with a typed error
    ({!Su_fs.Fsops.Eio} / [Erofs], {!Su_cache.Bcache.Io_error},
    {!Su_fs.Fs.Mount_failure}) and the surviving on-disk state
    repairs, remounts and stays clean. An untyped exception, a hang,
    or an unrepairable image is a violation. *)

val touched_sectors : cfg:Su_fs.Fs.config -> Explorer.workload -> int array
(** Distinct fragments the workload's driver requests cover, reads and
    writes both, from one fault-free run; ascending. *)

type verdict = {
  fv_sector : int;
  fv_outcome : Campaign.outcome;
  fv_remaps : int;  (** bad-sector remaps performed during the run *)
  fv_judged : Campaign.judgement;
}

val fv_clean : verdict -> bool
(** The survive-or-fail-clean predicate ({!Campaign.judged_clean}). *)

val run_one :
  cfg:Su_fs.Fs.config ->
  spares:int ->
  Explorer.workload ->
  int ->
  verdict
(** Run the workload once with the given sector permanently bad and
    [spares] spare fragments, then judge the surviving state (on the
    {e logical} image — remapped content resolved to home addresses,
    as a rebuilt replacement drive would hold it), remounting on a
    perfect device. *)

type summary = {
  fs_scheme : Su_fs.Fs.scheme_kind;
  fs_workload : string;
  fs_sectors : int;  (** distinct sectors the workload touches *)
  fs_tally : Campaign.tally;
      (** one swept verdict per sector injected; a violation breaks
          survive-or-fail-clean *)
  fs_remaps : int;  (** remaps performed across all runs *)
  fs_verdicts : verdict list;  (** per-sector detail, ascending sector *)
}

val ok : summary -> bool
(** No escapes and no survive-or-fail-clean violations. *)

val sweep :
  ?jobs:int ->
  ?spares:int ->
  ?max_sectors:int ->
  ?fail_fast:bool ->
  cfg:Su_fs.Fs.config ->
  Explorer.workload ->
  summary
(** The campaign: one run per touched sector, fanned out by
    {!Campaign.fan_out} ([jobs], [fail_fast]; verdict order and every
    count are identical at any [jobs] value). [spares] (default 64)
    sizes each run's spare pool. [max_sectors] caps the sectors
    injected (smoke runs). *)
