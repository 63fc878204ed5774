(** The engine every fault campaign runs on.

    A campaign is a planner plus this engine. The planner lists its
    injections (a crash state, a bad sector, a silent fault) and says
    how to run one; the engine supplies the pieces every campaign
    shares:

    - {!run_workload}: drive a workload in a controller process until
      the world is quiescent, and classify how it ended ({!outcome});
    - {!judge}: the judging tail — recover, fsck check, repair, then
      remount and keep living in the volume;
    - {!fan_out}: the pooled, fail-fast fan-out over the plan, whose
      verdict list is identical at any [jobs] value. *)

val compact_cfg : Su_fs.Fs.scheme_kind -> Su_fs.Fs.config
(** The 32 MB sweep volume (16 MB cylinder groups, 4 MB cache, 2 MB
    journal): small enough that the per-injection pipeline can run at
    every write boundary or touched sector. *)

val check_exposure : Su_fs.Fs.config -> bool
(** Whether fsck should flag stale-data exposure on this config: only
    the non-journaled schemes, and only with allocation
    initialisation on. *)

(** How one workload run ended. *)
type outcome =
  | Completed  (** every operation finished; the fault was absorbed *)
  | Failed_typed of string
      (** the run stopped with a typed error (Eio / Erofs / Io_error /
          Mount_failure) — legal iff the surviving state is clean *)
  | Escaped of string
      (** an untyped exception or a hang: always a violation *)

val outcome_name : outcome -> string

(** What a campaign's verdict list adds up to. *)
type tally = {
  swept : int;  (** verdicts: injections actually run (caps, fail-fast) *)
  completed : int;
  failed_typed : int;
  escaped : int;
  violations : int;  (** verdicts [clean] rejects *)
}

val tally : outcome:('v -> outcome) -> clean:('v -> bool) -> 'v list -> tally

val typed_failure : exn -> string option
(** [Some message] for the typed errors a run may legally stop with,
    looking through {!Su_sim.Proc.Process_failure}; [None] otherwise. *)

val run_workload :
  ?finish:(Su_fs.Fs.world -> string option) ->
  Su_fs.Fs.world ->
  (Su_fs.State.t -> unit) ->
  outcome
(** Run the workload in a controller process, then stop the world's
    daemons and quiesce the driver. [finish] runs right after the
    workload, in the same process; [Some msg] turns the run
    [Failed_typed msg]. A typed failure while quiescing keeps the
    outcome already taken; an event queue that drains before the
    workload returns is a hang ([Escaped]). *)

val expect_completed : outcome -> unit
(** @raise Failure unless the outcome is [Completed] (for runs that
    are not themselves under test, such as a recording run). *)

val touched_sectors :
  cfg:Su_fs.Fs.config -> (Su_fs.State.t -> unit) -> int array * int array
(** [(reads, writes)]: the distinct fragments the workload's driver
    requests cover, split by direction, from one fault-free run of
    [cfg] with trace records kept. Both ascending. *)

val check_clean : Su_fs.Fs.config -> Su_fstypes.Types.cell array -> bool
(** Mount-time recovery over the image, then a clean fsck check. *)

val clean_device : Su_fs.Fs.config -> Su_fs.Fs.config
(** The config with a perfect device: no fault model, no spares, no
    scrubber. The injection campaigns remount on it. *)

val remount_and_continue :
  campaign:string -> cfg:Su_fs.Fs.config -> Su_fstypes.Types.cell array -> bool
(** The judging tail's remount probe: mount the image under [cfg],
    create, write and rename in a probe directory named after
    [campaign], sync, and check the resulting disk clean. [false] on
    any failure. The image itself is only read. *)

(** What the judging tail found. *)
type judgement = {
  pre_violations : int;  (** fsck violations before repair *)
  repair_converged : bool;
  post_violations : int;  (** violations surviving repair *)
  remount_ok : bool;  (** repaired image remounted, ran on, stayed clean *)
}

val judge :
  ?observer:Su_fstypes.Imglog.observer ->
  campaign:string ->
  cfg:Su_fs.Fs.config ->
  remount_cfg:Su_fs.Fs.config ->
  outcome ->
  Su_fstypes.Types.cell array ->
  judgement
(** The judging tail over a surviving image (mutated in place):
    mount-time recovery, then an fsck check when [Completed] (nothing
    should need repair) or else an fsck repair, whose first-round
    report gives [pre_violations]; then a remount under
    [remount_cfg] that creates, writes and renames in a probe
    directory named after [campaign], syncs, and must check out clean
    again (skipped when [Escaped] — already a violation). [observer]
    sees every cell recovery and repair change. *)

val judged_clean : outcome -> judgement -> bool
(** Survive-or-fail-clean: a completed run must leave nothing to
    repair and remount cleanly; a typed failure must repair to zero
    violations, remount and stay clean; an escape never passes. *)

val fail_fast_chunk : int
(** Fail-fast chunk size: fixed, never derived from [jobs], so the
    verdict list is identical at any [jobs] value. *)

val fan_out :
  ?jobs:int ->
  ?cap:int ->
  ?fail_fast:bool ->
  ?clean:('v -> bool) ->
  init:(unit -> 's) ->
  int ->
  ('s -> int -> 'v) ->
  'v list
(** [fan_out ~init n run] is [[run s 0; ...; run s (n-1)]], computed
    over a {!Su_util.Pool} of [jobs] domains (default 1; [0] = all
    cores), each worker threading its own [init] state through the
    indices it claims in increasing order. [cap] bounds the indices
    run. With [fail_fast], the plan runs in chunks of
    {!fail_fast_chunk} and the list stops at the first verdict
    [clean] rejects, that verdict included. *)
