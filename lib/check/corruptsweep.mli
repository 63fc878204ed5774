(** Systematic silent-corruption campaign: inject every silent-fault
    class on every sector a workload touches — checksums on — and
    demand detect-and-repair or fail-clean.

    The integrity analogue of {!Faultsweep}, a planner on
    {!Campaign}. One fault-free recording run splits the workload's
    touched sectors into read-touched and write-touched sets; the sweep re-runs the workload once per
    (sector, class) pair — a bit-flipped read on each read-touched
    sector, a lost and a misdirected write on each write-touched one —
    and checks every run against a three-way contract:

    - {b Completed}: the fault fired, the final image fscks clean,
      matches the caller's model oracle, and remounts — the corruption
      was detected and healed (or was provably benign).
    - {b Failed_typed}: the run stopped with a typed error; data loss
      is legal but the surviving volume must fsck-repair to zero
      violations, remount (checksums still verifying) and stay clean.
    - {b Escaped}: an untyped exception or a hang — always a
      violation. A Completed run whose image {e diverges} from the
      model is a {e silent escape}, the one thing checksums exist to
      prevent; the summary counts these separately.

    Verdict lists are byte-identical at any [jobs] value (merge by
    index; fixed fail-fast chunk). *)

type silent_class = Flip | Lost | Misdirect

val class_name : silent_class -> string

val touched_sectors :
  cfg:Su_fs.Fs.config -> Explorer.workload -> int array * int array
(** [(read_touched, write_touched)], each ascending: the distinct
    sectors the workload's reads / writes cover on a fault-free run
    with checksums on. *)

type injection = {
  inj_class : silent_class;
  inj_sector : int;
  inj_victim : int;  (** misdirection victim sector, [-1] otherwise *)
}

val plan : reads:int array -> writes:int array -> injection array
(** The deterministic injection plan: flips over [reads], lost and
    misdirected writes over [writes] (victim = next write-touched
    sector, wrapping; no distinct victim degrades to lost). *)

type verdict = {
  cv_sector : int;
  cv_class : silent_class;
  cv_victim : int;
  cv_outcome : Campaign.outcome;
  cv_injected : bool;  (** the one-shot fault actually fired *)
  cv_detected : int;  (** checksum mismatches the run observed *)
  cv_repaired : int;  (** fragments the online ladder healed *)
  cv_judged : Campaign.judgement;
  cv_divergences : int;  (** model-oracle mismatches (Completed runs) *)
}

val cv_clean : verdict -> bool
(** The per-verdict contract above. *)

val cv_silent_escape : verdict -> bool
(** Completed, injected, but diverged from the model. *)

val run_one :
  cfg:Su_fs.Fs.config ->
  spares:int ->
  oracle:(Su_fstypes.Types.cell array -> string list) ->
  Explorer.workload ->
  injection ->
  verdict
(** One workload run under one injected silent fault, checksums on.
    After the workload's final sync, {!Su_fs.Integrity.full_verify}
    surfaces still-latent corruption (an unrepairable residue turns
    the run [Failed_typed]). [oracle] receives the final recovered
    logical image of Completed runs and returns divergence
    descriptions ([[]] = the image matches the model). *)

type summary = {
  cs_scheme : Su_fs.Fs.scheme_kind;
  cs_workload : string;
  cs_read_sectors : int;
  cs_write_sectors : int;
  cs_planned : int;
  cs_tally : Campaign.tally;
  cs_detected : int;
  cs_repaired : int;
  cs_silent_escapes : int;
  cs_verdicts : verdict list;
}

val ok : summary -> bool
(** No escapes, no silent escapes, no contract violations. *)

val sweep :
  ?jobs:int ->
  ?spares:int ->
  ?max_injections:int ->
  ?fail_fast:bool ->
  cfg:Su_fs.Fs.config ->
  oracle:(Su_fstypes.Types.cell array -> string list) ->
  Explorer.workload ->
  summary
(** The full campaign, fanned out by {!Campaign.fan_out} ([jobs],
    [fail_fast]; verdicts and summary are byte-identical at any
    [jobs] value). [spares] (default 64) provisions the remap pool of
    every injected run. [max_injections] caps the plan prefix. *)
