(** Off-line consistency checker, run against a crashed disk image.

    Distinguishes the paper's notion of {e integrity violations}
    (states fsck cannot safely repair: dangling references, doubly
    allocated resources, link counts lower than the reference count,
    referenced-but-free resources, stale-data exposure) from benign,
    {e repairable} conditions (leaked blocks/inodes, link counts
    higher than the reference count) that ordered updates are allowed
    to leave behind. All schemes except No Order must produce zero
    violations at every crash point; the exposure check additionally
    requires allocation initialisation to have been enforced. *)

open Su_fstypes

type violation =
  | Dangling_entry of { dir : int; name : string; inum : int }
      (** directory entry referencing a free or garbage inode *)
  | Bad_pointer of { inum : int; lbn : int; ptr : int }
      (** block pointer outside any data area *)
  | Cross_allocated of { frag : int; owners : int * int }
      (** one fragment referenced by two files *)
  | Nlink_low of { inum : int; nlink : int; refs : int }
      (** fewer links than references: premature free possible *)
  | Exposure of { inum : int; flbn : int; frag : int }
      (** pointer to a fragment whose contents the file never wrote:
          another file's stale data is readable *)
  | Bad_dir of { inum : int; reason : string }
      (** unreadable directory block, missing "." or "..", a "." that
          names another inode, or a ".." that names no valid inode *)
  | Bad_cg of { cg : int }
      (** unreadable cylinder-group header; not structural: repair's
          map rebuild rewrites every header *)
  | Csum_mismatch of { frag : int }
      (** fragment content disagrees with the image's persisted
          checksum region (silent corruption the online ladder never
          healed); only reported when the image carries a region *)

type report = {
  violations : violation list;
  leaked_frags : int;  (** allocated in the maps but unreferenced *)
  leaked_inodes : int;
  stale_free : int;
      (** resources referenced on disk but marked free in the maps
          (repairable: fsck rebuilds the maps before any reuse) *)
  nlink_high : int;  (** inodes with more links than references *)
  files : int;  (** live files found *)
  dirs : int;  (** live directories found *)
}

val pp_violation : Format.formatter -> violation -> unit

val check :
  geom:Geom.t -> image:Types.cell array -> check_exposure:bool -> report
(** Walk the directory tree from the root, verify every reachable
    structure, then audit the allocation maps. Never raises on bad
    images: an entry or pointer naming an out-of-range inode or
    fragment is a violation.

    Report order: first the violations the breadth-first walk meets,
    in walk order; then [Nlink_low] in ascending inum; then [Bad_cg]
    in ascending group; then [Csum_mismatch] in ascending fragment. *)

val ok : report -> bool
(** No violations (leaks are fine). *)

(** What {!repair} did to the image. *)
type repair_action =
  | Cleared_entry of { dir : int; name : string }
  | Fixed_nlink of { inum : int; from_ : int; to_ : int }
  | Truncated_file of { inum : int }
      (** cross-allocated, exposed or badly-pointed file data dropped *)
  | Cleared_dir_block of { inum : int; ptr : int }
  | Restored_dots of { inum : int }
  | Freed_unreachable of { inodes : int }
  | Rebuilt_maps
  | Resynced_csums of { frags : int }
      (** checksum region resynchronised to the repaired image as the
          last step: structural repair (not fsck's checksum pass)
          decides what data survives, then every fragment is made to
          verify again so the volume remounts clean *)

val pp_repair_action : Format.formatter -> repair_action -> unit

type repair_outcome = {
  actions : repair_action list;
      (** what was done, in order: structural fixes round by round (in
          report order), then [Fixed_nlink] in ascending inum, then
          [Freed_unreachable], [Rebuilt_maps] and [Resynced_csums] *)
  initial : report;
      (** the first round's check, of the image as repair found it
          (after any {!repair_test_hook} writes) *)
  final : report;
      (** the check of the repaired image; when no write landed after
          the last round's clean check, that check's report (the image
          is unchanged, so a re-check would read the same) *)
  rounds : int;  (** structural repair rounds run *)
  converged : bool;
      (** [false] if structural repairs kept uncovering new damage and
          the round limit was hit; the image was still settled
          (link counts, unreachable inodes, allocation maps) but
          [final] may carry residual violations *)
}

val repair :
  ?observer:Imglog.observer ->
  geom:Geom.t ->
  image:Types.cell array ->
  check_exposure:bool ->
  unit ->
  repair_outcome
(** Fix the image in place, fsck-style: clear dangling entries, drop
    the data of cross-allocated/exposed files, restore "."/"..",
    settle link counts to the observed reference counts, reclaim
    unreachable resources and rebuild the allocation maps. Never
    raises on bad images: non-convergence is reported in the
    outcome.

    Every cell the repair changes flows through
    {!Su_fstypes.Imglog.write}: an [observer] sees repair's own write
    stream (writes that would not change the image are dropped), so
    the crash-state explorer can re-crash repair at any of its write
    boundaries. Repair actions are restartable over their own partial
    effects — each is recomputed from the image it finds — and a
    repair with nothing left to do writes nothing, which is the
    fixed-point the nested sweep checks. *)

val repair_test_hook :
  (Types.cell array -> (int * Types.cell) list) option ref
(** Test-only. When set, [repair] first applies the returned
    [(lbn, cell)] writes through its observed write path. Tests
    install a content-dependent hook here to prove the nested sweep
    catches a non-idempotent repair (one that never reaches a
    write-free round). Always reset to [None] afterwards. *)
