open Su_fstypes

type violation =
  | Dangling_entry of { dir : int; name : string; inum : int }
  | Bad_pointer of { inum : int; lbn : int; ptr : int }
  | Cross_allocated of { frag : int; owners : int * int }
  | Nlink_low of { inum : int; nlink : int; refs : int }
  | Exposure of { inum : int; flbn : int; frag : int }
  | Bad_dir of { inum : int; reason : string }
  | Bad_cg of { cg : int }
  | Csum_mismatch of { frag : int }

type report = {
  violations : violation list;
  leaked_frags : int;
  leaked_inodes : int;
  stale_free : int;
  nlink_high : int;
  files : int;
  dirs : int;
}

let pp_violation ppf = function
  | Dangling_entry { dir; name; inum } ->
    Format.fprintf ppf "dangling entry %S in dir %d -> inode %d" name dir inum
  | Bad_pointer { inum; lbn; ptr } ->
    Format.fprintf ppf "bad pointer in inode %d, block %d -> %d" inum lbn ptr
  | Cross_allocated { frag; owners = a, b } ->
    Format.fprintf ppf "fragment %d owned by inodes %d and %d" frag a b
  | Nlink_low { inum; nlink; refs } ->
    Format.fprintf ppf "inode %d has nlink %d < %d references" inum nlink refs
  | Exposure { inum; flbn; frag } ->
    Format.fprintf ppf "inode %d fragment %d exposes stale data at %d" inum flbn
      frag
  | Bad_dir { inum; reason } ->
    Format.fprintf ppf "directory %d: %s" inum reason
  | Bad_cg { cg } ->
    Format.fprintf ppf "cylinder group %d: unreadable header" cg
  | Csum_mismatch { frag } ->
    Format.fprintf ppf "fragment %d disagrees with its checksum" frag

(* The [Bad_dir] reasons repair answers by rewriting "." and "..". *)
let missing_dots = "missing \".\" or \"..\""
let bad_dot = "bad \".\""
let bad_dotdot = "bad \"..\""

(* The per-inode tables are indexed by [inum - Geom.root_inum] over
   [Geom.total_inodes]; only valid inums ever index them. *)
type ctx = {
  geom : Geom.t;
  image : Types.cell array;
  check_exposure : bool;
  mutable violations : violation list;
  frag_owner : int array;  (* fragment -> owning inode, 0 = unowned *)
  inode_refs : int array;  (* on-disk references *)
  live : Bytes.t;  (* reachable allocated inodes *)
  parent : int array;  (* directory -> the directory it was found in *)
}

let viol ctx v = ctx.violations <- v :: ctx.violations

let is_live ctx inum = Bytes.get ctx.live (inum - Geom.root_inum) <> '\000'
let set_live ctx inum = Bytes.set ctx.live (inum - Geom.root_inum) '\001'

(* A block pointer's target; out-of-range pointers read as unwritten. *)
let cell_at image ptr =
  if ptr > 0 && ptr < Array.length image then image.(ptr) else Types.Empty

let read_dinode ctx inum =
  if not (Geom.valid_inum ctx.geom inum) then None
  else
    let frag = Geom.inode_block_frag ctx.geom inum in
    match ctx.image.(frag) with
    | Types.Meta (Types.Inodes dinodes) ->
      let d = dinodes.(Geom.inode_index_in_block ctx.geom inum) in
      if d.Types.ftype = Types.F_free then None else Some d
    | Types.Empty | Types.Pad | Types.Frag _ | Types.Meta _ | Types.Jlog _ | Types.Rmap _ | Types.Csum _ ->
      (* inode block never written: all-free *)
      None

let claim_frags ctx ~inum ~start ~len =
  for f = start to start + len - 1 do
    if not (Geom.data_frag_in_cg ctx.geom f) then
      viol ctx (Bad_pointer { inum; lbn = -1; ptr = f })
    else
      let other = ctx.frag_owner.(f) in
      if other = 0 then ctx.frag_owner.(f) <- inum
      else if other <> inum then
        viol ctx (Cross_allocated { frag = f; owners = (other, inum) })
  done

let check_data_extent ctx ~inum ~(din : Types.dinode) ~lbn ~start ~len =
  claim_frags ctx ~inum ~start ~len;
  if ctx.check_exposure then
    for i = 0 to len - 1 do
      let f = start + i in
      if f >= 0 && f < Array.length ctx.image then
        match ctx.image.(f) with
        | Types.Frag s when Types.stamp_matches s ~inum ~gen:din.Types.gen -> ()
        | Types.Frag _ | Types.Empty | Types.Pad | Types.Meta _ | Types.Jlog _ | Types.Rmap _ | Types.Csum _ ->
          viol ctx (Exposure { inum; flbn = (lbn * ctx.geom.Geom.frags_per_block) + i; frag = f })
    done

let read_indirect ctx ~inum ~ptr =
  match cell_at ctx.image ptr with
  | Types.Meta (Types.Indirect a) -> Some a
  | Types.Empty | Types.Pad | Types.Frag _ | Types.Meta _ | Types.Jlog _ | Types.Rmap _ | Types.Csum _ ->
    (* out of range, or an uninitialised indirect block *)
    viol ctx (Bad_pointer { inum; lbn = -1; ptr });
    None

let frags_in_block g ~size ~lbn =
  let bb = Geom.block_bytes g in
  if size <= lbn * bb then 0
  else if size >= (lbn + 1) * bb then g.Geom.frags_per_block
  else Geom.frags_of_bytes g (size - (lbn * bb))

(* the file system allocates partial tail runs only for files that fit
   in the direct pointers; larger files use full blocks *)
let extent_len g ~size ~lbn =
  let partial = frags_in_block g ~size ~lbn in
  if partial = 0 then 0
  else if
    partial < g.Geom.frags_per_block
    && Geom.blocks_of_bytes g size > g.Geom.ndaddr
  then g.Geom.frags_per_block
  else partial

(* Walk a file's block pointers, claiming fragments and checking
   stamps. *)
let check_file_blocks ctx inum (din : Types.dinode) =
  let g = ctx.geom in
  let fpb = g.Geom.frags_per_block in
  let size = din.Types.size in
  let check_ptr ~lbn ptr =
    if ptr <> 0 then begin
      let len = extent_len g ~size ~lbn in
      let len = if len = 0 then fpb else len in
      (* only the bytes the file logically holds must carry its stamps;
         the slack fragments of a full tail block are merely claimed *)
      let data_len = frags_in_block g ~size ~lbn in
      let data_len = if data_len = 0 then len else data_len in
      if din.Types.ftype = Types.F_dir then claim_frags ctx ~inum ~start:ptr ~len
      else begin
        claim_frags ctx ~inum ~start:ptr ~len;
        check_data_extent ctx ~inum ~din ~lbn ~start:ptr ~len:data_len
      end
    end
  in
  Array.iteri (fun i ptr -> check_ptr ~lbn:i ptr) din.Types.db;
  let nd = g.Geom.ndaddr and ni = g.Geom.nindir in
  if din.Types.ib <> 0 then begin
    claim_frags ctx ~inum ~start:din.Types.ib ~len:fpb;
    match read_indirect ctx ~inum ~ptr:din.Types.ib with
    | None -> ()
    | Some a -> Array.iteri (fun i ptr -> check_ptr ~lbn:(nd + i) ptr) a
  end;
  if din.Types.ib2 <> 0 then begin
    claim_frags ctx ~inum ~start:din.Types.ib2 ~len:fpb;
    match read_indirect ctx ~inum ~ptr:din.Types.ib2 with
    | None -> ()
    | Some a2 ->
      Array.iteri
        (fun l1 p1 ->
          if p1 <> 0 then begin
            claim_frags ctx ~inum ~start:p1 ~len:fpb;
            match read_indirect ctx ~inum ~ptr:p1 with
            | None -> ()
            | Some a1 ->
              Array.iteri
                (fun i ptr -> check_ptr ~lbn:(nd + ni + (l1 * ni) + i) ptr)
                a1
          end)
        a2
  end

let dir_blocks ctx inum (din : Types.dinode) =
  (* collect the directory's readable blocks *)
  let g = ctx.geom in
  let nblocks = Geom.blocks_of_bytes g din.Types.size in
  let out = ref [] in
  let fetch ptr =
    if ptr <> 0 then
      match cell_at ctx.image ptr with
      | Types.Meta (Types.Dir entries) -> out := entries :: !out
      | Types.Empty | Types.Pad | Types.Frag _ | Types.Meta _ | Types.Jlog _ | Types.Rmap _ | Types.Csum _ ->
        viol ctx (Bad_dir { inum; reason = Printf.sprintf "unreadable block at %d" ptr })
  in
  let nd = g.Geom.ndaddr in
  for i = 0 to min (nblocks - 1) (nd - 1) do
    fetch din.Types.db.(i)
  done;
  if nblocks > nd && din.Types.ib <> 0 then begin
    match read_indirect ctx ~inum ~ptr:din.Types.ib with
    | None -> ()
    | Some a ->
      for i = 0 to nblocks - nd - 1 do
        if i < Array.length a then fetch a.(i)
      done
  end;
  List.rev !out

let add_ref ctx inum =
  if Geom.valid_inum ctx.geom inum then begin
    let i = inum - Geom.root_inum in
    ctx.inode_refs.(i) <- ctx.inode_refs.(i) + 1
  end

(* Breadth-first walk of the directory tree: marks reachable inodes
   live, counts references and records each directory's parent. *)
let walk ctx =
  let queue = Queue.create () in
  let seen = Bytes.make (Geom.total_inodes ctx.geom) '\000' in
  (* [inum] is valid: the root, or an allocated directory's entry *)
  let enqueue_dir ~parent inum =
    let i = inum - Geom.root_inum in
    if Bytes.get seen i = '\000' then begin
      Bytes.set seen i '\001';
      ctx.parent.(i) <- parent;
      Queue.add inum queue
    end
  in
  enqueue_dir ~parent:Geom.root_inum Geom.root_inum;
  while not (Queue.is_empty queue) do
    let dinum = Queue.pop queue in
    match read_dinode ctx dinum with
    | None -> viol ctx (Bad_dir { inum = dinum; reason = "directory inode is free" })
    | Some din ->
      set_live ctx dinum;
      check_file_blocks ctx dinum din;
      let blocks = dir_blocks ctx dinum din in
      let saw_dot = ref false and saw_dotdot = ref false in
      List.iter
        (fun entries ->
          Array.iter
            (function
              | None -> ()
              | Some { Types.name; inum } ->
                add_ref ctx inum;
                if name = "." then begin
                  saw_dot := true;
                  if inum <> dinum then
                    viol ctx (Bad_dir { inum = dinum; reason = bad_dot })
                end
                else if name = ".." then begin
                  saw_dotdot := true;
                  if not (Geom.valid_inum ctx.geom inum) then
                    viol ctx (Bad_dir { inum = dinum; reason = bad_dotdot })
                end
                else begin
                  match read_dinode ctx inum with
                  | None -> viol ctx (Dangling_entry { dir = dinum; name; inum })
                  | Some child ->
                    if child.Types.ftype = Types.F_dir then
                      enqueue_dir ~parent:dinum inum
                    else if not (is_live ctx inum) then begin
                      set_live ctx inum;
                      check_file_blocks ctx inum child
                    end
                end)
            entries)
        blocks;
      if blocks <> [] && not (!saw_dot && !saw_dotdot) then
        viol ctx (Bad_dir { inum = dinum; reason = missing_dots })
  done

(* Compare references with link counts and audit the free maps. *)
let audit ctx =
  let g = ctx.geom in
  let nlink_high = ref 0 and dirs = ref 0 and files = ref 0 in
  for i = 0 to Geom.total_inodes g - 1 do
    if Bytes.get ctx.live i <> '\000' then
      match read_dinode ctx (Geom.root_inum + i) with
      | None -> ()
      | Some din ->
        if din.Types.ftype = Types.F_dir then incr dirs else incr files;
        let refs = ctx.inode_refs.(i) in
        if din.Types.nlink < refs then
          viol ctx
            (Nlink_low { inum = Geom.root_inum + i; nlink = din.Types.nlink; refs })
        else if din.Types.nlink > refs then incr nlink_high
  done;
  let leaked_frags = ref 0 and leaked_inodes = ref 0 and stale_free = ref 0 in
  for c = 0 to Geom.cg_count g - 1 do
    match ctx.image.(Geom.cg_header_frag g c) with
    | Types.Meta (Types.Cgroup cg) ->
      let base = Geom.cg_base g c in
      let data_first, data_count = Geom.cg_data_area g c in
      let fmap = cg.Types.frag_map and imap = cg.Types.inode_map in
      let first = Geom.first_inum_of_cg g c - Geom.root_inum in
      let ipc = g.Geom.inodes_per_cg in
      if
        data_first >= base
        && data_first - base + data_count <= Bytes.length fmap
        && data_first + data_count <= Array.length ctx.frag_owner
        && ipc <= Bytes.length imap
        && first + ipc <= Bytes.length ctx.live
      then begin
        for f = data_first to data_first + data_count - 1 do
          let marked_used = Bytes.unsafe_get fmap (f - base) <> '\000' in
          let owned = Array.unsafe_get ctx.frag_owner f <> 0 in
          if owned && not marked_used then incr stale_free
          else if marked_used && not owned then incr leaked_frags
        done;
        for j = 0 to ipc - 1 do
          let marked_used = Bytes.unsafe_get imap j <> '\000' in
          let live = Bytes.unsafe_get ctx.live (first + j) <> '\000' in
          if live && not marked_used then incr stale_free
          else if marked_used && not live then incr leaked_inodes
        done
      end
      else (* maps too short for the group *) viol ctx (Bad_cg { cg = c })
    | Types.Empty | Types.Pad | Types.Frag _ | Types.Meta _ | Types.Jlog _ | Types.Rmap _ | Types.Csum _ ->
      viol ctx (Bad_cg { cg = c })
  done;
  (!leaked_frags, !leaked_inodes, !stale_free, !nlink_high, !dirs, !files)

(* The persisted checksum region, when the image carries one (always
   past the addressable media — never inside it). *)
let find_csum ~geom image =
  let rec go i =
    if i < geom.Geom.nfrags then None
    else
      match image.(i) with
      | Types.Csum ca -> Some (i, ca)
      | _ -> go (i - 1)
  in
  go (Array.length image - 1)

(* Verify every covered fragment against the region (auto-detected:
   images from checksum-less configurations have no region and no
   checksum phase). *)
let csum_violations ~geom image =
  match find_csum ~geom image with
  | None -> []
  | Some (_, ca) ->
    let lim = min (Array.length ca) (Array.length image) in
    let out = ref [] in
    for f = lim - 1 downto 0 do
      if Types.cell_digest image.(f) <> ca.(f) then
        out := Csum_mismatch { frag = f } :: !out
    done;
    !out

(* The check, keeping its context: repair reuses a clean round's
   references, parents and live set. Tables are allocated per call —
   campaigns run checks on several domains at once. *)
let check_ctx ~geom ~image ~check_exposure =
  let ninodes = Geom.total_inodes geom in
  let ctx =
    {
      geom;
      image;
      check_exposure;
      violations = [];
      frag_owner = Array.make geom.Geom.nfrags 0;
      inode_refs = Array.make ninodes 0;
      live = Bytes.make ninodes '\000';
      parent = Array.make ninodes 0;
    }
  in
  walk ctx;
  let leaked_frags, leaked_inodes, stale_free, nlink_high, dirs, files =
    audit ctx
  in
  ( ctx,
    {
      violations = List.rev ctx.violations @ csum_violations ~geom image;
      leaked_frags;
      leaked_inodes;
      stale_free;
      nlink_high;
      files;
      dirs;
    } )

let check ~geom ~image ~check_exposure =
  snd (check_ctx ~geom ~image ~check_exposure)

let ok (r : report) = r.violations = []

(* --- repair -------------------------------------------------------------- *)

type repair_action =
  | Cleared_entry of { dir : int; name : string }
  | Fixed_nlink of { inum : int; from_ : int; to_ : int }
  | Truncated_file of { inum : int }
  | Cleared_dir_block of { inum : int; ptr : int }
  | Restored_dots of { inum : int }
  | Freed_unreachable of { inodes : int }
  | Rebuilt_maps
  | Resynced_csums of { frags : int }

let pp_repair_action ppf = function
  | Cleared_entry { dir; name } ->
    Format.fprintf ppf "cleared entry %S in dir %d" name dir
  | Fixed_nlink { inum; from_; to_ } ->
    Format.fprintf ppf "inode %d link count %d -> %d" inum from_ to_
  | Truncated_file { inum } -> Format.fprintf ppf "truncated inode %d" inum
  | Cleared_dir_block { inum; ptr } ->
    Format.fprintf ppf "cleared unreadable block %d of dir %d" ptr inum
  | Restored_dots { inum } ->
    Format.fprintf ppf "restored \".\"/\"..\" in dir %d" inum
  | Freed_unreachable { inodes } ->
    Format.fprintf ppf "reclaimed %d unreachable inode(s)" inodes
  | Rebuilt_maps -> Format.fprintf ppf "rebuilt allocation maps"
  | Resynced_csums { frags } ->
    Format.fprintf ppf "resynchronised %d checksum(s)" frags

(* Read access to an inode slot. The returned record aliases the
   image: callers must not mutate it — all repair writes go through
   {!update_dinode} / {!update_dir_block}, which copy the cell, apply
   the change, and install the copy via [Imglog.write] so an observer
   sees every effective mutation (and re-running a repair that has
   nothing left to change writes nothing at all). *)
let peek_dinode geom image inum =
  match image.(Geom.inode_block_frag geom inum) with
  | Types.Meta (Types.Inodes dinodes) ->
    Some dinodes.(Geom.inode_index_in_block geom inum)
  | _ -> None

let update_dinode ?observer geom image inum f =
  let blk = Geom.inode_block_frag geom inum in
  match image.(blk) with
  | Types.Meta (Types.Inodes _) ->
    (match Types.copy_cell image.(blk) with
     | Types.Meta (Types.Inodes dinodes) as cell ->
       f dinodes.(Geom.inode_index_in_block geom inum);
       Imglog.write ?observer image blk cell
     | _ -> ())
  | _ -> ()

let update_dir_block ?observer image ptr f =
  match image.(ptr) with
  | Types.Meta (Types.Dir _) ->
    (match Types.copy_cell image.(ptr) with
     | Types.Meta (Types.Dir entries) as cell ->
       f entries;
       Imglog.write ?observer image ptr cell
     | _ -> ())
  | _ -> ()

(* All readable directory blocks of a directory, with their addresses. *)
let dir_blocks_with_addr geom image (din : Types.dinode) =
  let nblocks = Geom.blocks_of_bytes geom din.Types.size in
  let out = ref [] in
  let fetch ptr =
    match cell_at image ptr with
    | Types.Meta (Types.Dir entries) -> out := (ptr, entries) :: !out
    | _ -> ()
  in
  let nd = geom.Geom.ndaddr in
  for i = 0 to min (nblocks - 1) (nd - 1) do
    fetch din.Types.db.(i)
  done;
  if nblocks > nd then begin
    match cell_at image din.Types.ib with
    | Types.Meta (Types.Indirect arr) ->
      for i = 0 to nblocks - nd - 1 do
        if i < Array.length arr then fetch arr.(i)
      done
    | _ -> ()
  end;
  List.rev !out

let clear_entry ?observer geom image ~dir ~name =
  match peek_dinode geom image dir with
  | None -> ()
  | Some din ->
    List.iter
      (fun (ptr, blk_entries) ->
        if
          Array.exists
            (function
              | Some en -> en.Types.name = name
              | None -> false)
            blk_entries
        then
          update_dir_block ?observer image ptr (fun entries ->
              Array.iteri
                (fun i e ->
                  match e with
                  | Some en when en.Types.name = name -> entries.(i) <- None
                  | Some _ | None -> ())
                entries))
      (dir_blocks_with_addr geom image din)

let truncate_file ?observer geom image inum =
  update_dinode ?observer geom image inum (fun din ->
      Array.fill din.Types.db 0 (Array.length din.Types.db) 0;
      din.Types.ib <- 0;
      din.Types.ib2 <- 0;
      din.Types.size <- 0)

let clear_bad_dir_block ?observer geom image inum =
  (* remove pointers to unreadable blocks from a directory, then
     compact the survivors: directories must be dense *)
  match peek_dinode geom image inum with
  | None -> ()
  | Some din ->
    let keep = ref [] in
    Array.iter
      (fun ptr ->
        match cell_at image ptr with
        | Types.Meta (Types.Dir _) -> keep := ptr :: !keep
        | _ -> ())
      din.Types.db;
    let survivors = Array.of_list (List.rev !keep) in
    update_dinode ?observer geom image inum (fun din ->
        Array.fill din.Types.db 0 (Array.length din.Types.db) 0;
        Array.blit survivors 0 din.Types.db 0 (Array.length survivors);
        din.Types.ib <- 0;
        din.Types.ib2 <- 0;
        din.Types.size <- Array.length survivors * Geom.block_bytes geom)

(* Point every "." at the directory and every out-of-range ".." at
   [parent]; add whichever of the two is missing altogether to the
   first block. *)
let restore_dots ?observer geom image ~inum ~parent =
  match peek_dinode geom image inum with
  | None -> ()
  | Some din ->
    let blocks = dir_blocks_with_addr geom image din in
    let absent name =
      List.for_all (fun (_, es) -> Types.dir_find es name = None) blocks
    in
    let add_dot = absent "." and add_dotdot = absent ".." in
    List.iteri
      (fun b (ptr, _) ->
        update_dir_block ?observer image ptr (fun entries ->
            Array.iteri
              (fun s e ->
                match e with
                | Some { Types.name = "."; inum = i } when i <> inum ->
                  entries.(s) <- Some { Types.name = "."; inum }
                | Some { Types.name = ".."; inum = i }
                  when not (Geom.valid_inum geom i) ->
                  entries.(s) <- Some { Types.name = ".."; inum = parent }
                | Some _ | None -> ())
              entries;
            if b = 0 then begin
              let add name inum =
                match Types.dir_free_slot entries with
                | Some s -> entries.(s) <- Some { Types.name; inum }
                | None -> ()
              in
              if add_dot then add "." inum;
              if add_dotdot then add ".." parent
            end))
      blocks

type repair_outcome = {
  actions : repair_action list;
  initial : report;
  final : report;
  rounds : int;
  converged : bool;
}

(* Test-only: extra image writes injected at the top of every repair
   call, routed through the same observed write path as real repair
   actions. The nested (crash-during-recovery) sweep uses this to
   prove it catches a non-idempotent repair: a hook whose writes
   depend on the current image content never reaches a write-free
   round, and the sweep's fixed-point check flags it. Never set
   outside tests. *)
let repair_test_hook :
    (Su_fstypes.Types.cell array -> (int * Su_fstypes.Types.cell) list)
      option
      ref =
  ref None

let repair ?observer ~geom ~image ~check_exposure () =
  (* count the writes that land, so a repair whose last clean round
     was followed by no write can reuse that round's report as its
     final one: the image is the one it checked *)
  let writes = ref 0 in
  let observer =
    Some
      (fun ~lbn ~pre ~post ->
        incr writes;
        match observer with Some f -> f ~lbn ~pre ~post | None -> ())
  in
  (match !repair_test_hook with
   | Some hook ->
     List.iter
       (fun (lbn, cell) -> Imglog.write ?observer image lbn cell)
       (hook image)
   | None -> ());
  let actions = ref [] in
  let note a = actions := a :: !actions in
  let rounds = ref 0 in
  let converged = ref true in
  (* the context and report of a round that found nothing structural,
     with the write count at its check: the loop then writes nothing,
     so they still describe the image *)
  let clean = ref None in
  let initial = ref None in
  while !clean = None && !converged do
    incr rounds;
    if !rounds > 8 then
      (* structural repairs keep uncovering each other: stop rewriting
         and report divergence instead of dying — the settle/reclaim
         passes below still leave the image as sane as possible *)
      converged := false
    else begin
      let ctx, r = check_ctx ~geom ~image ~check_exposure in
      if !initial = None then initial := Some r;
      let structural =
        List.filter
          (function
            | Nlink_low _ | Csum_mismatch _ | Bad_cg _ -> false
            | _ -> true)
          r.violations
      in
      if structural = [] then clean := Some (ctx, r, !writes)
      else
        List.iter
          (fun v ->
            match v with
            | Dangling_entry { dir; name; _ } ->
              clear_entry ?observer geom image ~dir ~name;
              note (Cleared_entry { dir; name })
            | Cross_allocated { owners = (_, b); _ } ->
              truncate_file ?observer geom image b;
              note (Truncated_file { inum = b })
            | Exposure { inum; _ } | Bad_pointer { inum; _ } ->
              truncate_file ?observer geom image inum;
              note (Truncated_file { inum })
            | Bad_dir { inum; reason }
              when reason = missing_dots || reason = bad_dot
                   || reason = bad_dotdot ->
              let parent = ctx.parent.(inum - Geom.root_inum) in
              let parent = if parent = 0 then Geom.root_inum else parent in
              restore_dots ?observer geom image ~inum ~parent;
              note (Restored_dots { inum })
            | Bad_dir { inum; _ } ->
              clear_bad_dir_block ?observer geom image inum;
              note (Cleared_dir_block { inum; ptr = 0 })
            | Nlink_low _ | Bad_cg _ | Csum_mismatch _ -> ())
          structural
    end
  done;
  (* settle link counts against the observed reference counts and
     reclaim unreachable inodes; after the round limit the image has
     changed since the last check, so walk it afresh *)
  let ctx =
    match !clean with
    | Some (ctx, _, _) -> ctx
    | None -> fst (check_ctx ~geom ~image ~check_exposure)
  in
  let ninodes = Geom.total_inodes geom in
  for i = 0 to ninodes - 1 do
    if Bytes.get ctx.live i <> '\000' then begin
      let inum = Geom.root_inum + i in
      match peek_dinode geom image inum with
      | Some din when din.Types.ftype <> Types.F_free ->
        let want = ctx.inode_refs.(i) in
        if din.Types.nlink <> want && want > 0 then begin
          note (Fixed_nlink { inum; from_ = din.Types.nlink; to_ = want });
          update_dinode ?observer geom image inum (fun d ->
              d.Types.nlink <- want)
        end
      | Some _ | None -> ()
    end
  done;
  (* unreachable allocated inodes: clear them (their storage is
     reclaimed by the map rebuild) *)
  let freed = ref 0 in
  for i = 0 to ninodes - 1 do
    if Bytes.get ctx.live i = '\000' then begin
      let inum = Geom.root_inum + i in
      match peek_dinode geom image inum with
      | Some din when din.Types.ftype <> Types.F_free ->
        update_dinode ?observer geom image inum (fun d ->
            d.Types.ftype <- Types.F_free;
            d.Types.nlink <- 0;
            Array.fill d.Types.db 0 (Array.length d.Types.db) 0;
            d.Types.ib <- 0;
            d.Types.ib2 <- 0;
            d.Types.size <- 0);
        incr freed
      | Some _ | None -> ()
    end
  done;
  if !freed > 0 then note (Freed_unreachable { inodes = !freed });
  Su_core.Journaled.rebuild_maps ?observer geom image;
  note Rebuilt_maps;
  (* resynchronise the checksum region to the repaired image: data the
     structural phase could not save is already gone (typed, reported
     above) — what matters now is that every fragment verifies so the
     volume remounts clean. One equality-suppressed write keeps the
     pass idempotent. *)
  (match find_csum ~geom image with
   | None -> ()
   | Some (slot, ca) ->
     let fresh = Array.copy ca in
     let lim = min (Array.length fresh) (Array.length image) in
     let changed = ref 0 in
     for f = 0 to lim - 1 do
       let d = Types.cell_digest image.(f) in
       if fresh.(f) <> d then begin
         fresh.(f) <- d;
         incr changed
       end
     done;
     if !changed > 0 then begin
       Imglog.write ?observer image slot (Types.Csum fresh);
       note (Resynced_csums { frags = !changed })
     end);
  let final =
    match !clean with
    | Some (_, r, w) when w = !writes -> r
    | Some _ | None -> check ~geom ~image ~check_exposure
  in
  {
    actions = List.rev !actions;
    initial = Option.get !initial;
    final;
    rounds = !rounds;
    converged = !converged;
  }
