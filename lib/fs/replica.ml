open Su_fstypes

(* Critical-metadata replication.

   mkfs already writes one superblock copy per cylinder group; this
   module turns those copies into usable redundancy. At mount the
   copies are cross-checked and any invalid or known-bad one is
   restored from a surviving sister (read-fallback), remapping the
   fragment first when the device knows it is a permanent bad sector
   and spares are available (write-through to a good home). Online,
   the scrubber performs the same repair through the driver. *)

let is_valid ~(geom : Geom.t) cell =
  match cell with
  | Types.Meta (Types.Superblock sb) ->
    sb.Types.sb_magic = Types.magic && sb.Types.sb_nfrags = geom.Geom.nfrags
  | _ -> false

let copy_frags geom =
  List.init (Geom.cg_count geom) (fun c -> Geom.cg_sb_frag geom c)

let is_copy_frag geom frag =
  let fpb = geom.Geom.frags_per_block in
  List.exists (fun f -> frag >= f && frag < f + fpb) (copy_frags geom)

(* The device cannot read this fragment: it is on the permanent
   bad-sector list and has not been remapped to a spare. *)
let unreadable disk frag =
  List.mem frag
    (Su_disk.Fault.config (Su_disk.Disk.fault disk)).Su_disk.Fault.bad_sectors
  && not (List.mem_assoc frag (Su_disk.Disk.remap_entries disk))

(* A copy is usable when its content validates ([peek] follows the
   remap table) and its home is readable. *)
let usable ~geom disk frag =
  is_valid ~geom (Su_disk.Disk.peek disk frag) && not (unreadable disk frag)

let check_and_restore ~geom disk =
  let cs = copy_frags geom in
  match List.find_opt (fun f -> usable ~geom disk f) cs with
  | None -> Error "no usable superblock replica"
  | Some good ->
    (* a superblock is one of the boxed kinds [Disk.peek] returns
       live; [Disk.install] stores private copies, so the restored
       replicas never share its record *)
    let cell = Su_disk.Disk.peek disk good in
    let restored =
      List.fold_left
        (fun n f ->
          if usable ~geom disk f then n
          else begin
            (* a permanently bad home needs a new one first; without
               spares the content is still fixed in place (which cures
               plain corruption, not the bad sector) *)
            if unreadable disk f then ignore (Su_disk.Disk.try_remap disk ~lbn:f);
            Su_disk.Disk.install disk f cell;
            n + 1
          end)
        0 cs
    in
    Ok restored
