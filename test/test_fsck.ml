(* fsck must actually detect each class of corruption: build a clean
   image, seed one specific inconsistency, and check the verdict. *)
open Su_sim
open Su_fstypes
open Su_fs

let clean_world () =
  let cfg =
    { (Fs.config ~scheme:Fs.No_order ()) with
      Fs.geom = Geom.small;
      cache_mb = 8 }
  in
  let w = Fs.make cfg in
  let _p =
    Proc.spawn w.Fs.engine ~name:"setup" (fun () ->
        let st = w.Fs.st in
        Fsops.mkdir st "/d";
        Fsops.create st "/d/a";
        Fsops.append st "/d/a" ~bytes:4096;
        Fsops.create st "/d/b";
        Fsops.append st "/d/b" ~bytes:12288;
        Fsops.sync st;
        Fs.stop w)
  in
  Engine.run w.Fs.engine;
  (w, Su_disk.Disk.image_snapshot w.Fs.disk)

let geom = Geom.small

let check ?(exposure = true) image =
  Fsck.check ~geom ~image ~check_exposure:exposure

let find_dir_entries image name =
  (* locate the directory block containing [name]; return (frag, entries) *)
  let found = ref None in
  Array.iteri
    (fun frag cell ->
      match cell with
      | Types.Meta (Types.Dir entries) ->
        if
          Array.exists
            (function Some e -> e.Types.name = name | None -> false)
            entries
        then found := Some (frag, entries)
      | _ -> ())
    image;
  match !found with
  | Some x -> x
  | None -> Alcotest.failf "no directory block with entry %s" name

let dinode_of image inum =
  match image.(Geom.inode_block_frag geom inum) with
  | Types.Meta (Types.Inodes dinodes) ->
    dinodes.(Geom.inode_index_in_block geom inum)
  | _ -> Alcotest.fail "inode block unreadable"

let entry_inum entries name =
  match Types.dir_find entries name with
  | Some (_, e) -> e.Types.inum
  | None -> Alcotest.failf "entry %s missing" name

let test_clean_baseline () =
  let _w, image = clean_world () in
  let r = check image in
  Alcotest.(check bool) "clean" true (Fsck.ok r);
  Alcotest.(check int) "two files" 2 r.Fsck.files;
  Alcotest.(check int) "two dirs" 2 r.Fsck.dirs

let has_violation r pred = List.exists pred r.Fsck.violations

let test_detects_dangling_entry () =
  let _w, image = clean_world () in
  let frag, entries = find_dir_entries image "a" in
  let inum = entry_inum entries "a" in
  (* free the inode behind the entry *)
  let d = dinode_of image inum in
  d.Types.ftype <- Types.F_free;
  ignore frag;
  let r = check image in
  Alcotest.(check bool) "dangling detected" true
    (has_violation r (function
      | Fsck.Dangling_entry { inum = i; _ } -> i = inum
      | _ -> false))

let test_detects_cross_allocation () =
  let _w, image = clean_world () in
  let _, entries = find_dir_entries image "a" in
  let ia = entry_inum entries "a" and ib = entry_inum entries "b" in
  let da = dinode_of image ia and db_ = dinode_of image ib in
  (* make b's first block point at a's first block *)
  db_.Types.db.(0) <- da.Types.db.(0);
  let r = check ~exposure:false image in
  Alcotest.(check bool) "cross allocation detected" true
    (has_violation r (function Fsck.Cross_allocated _ -> true | _ -> false))

let test_detects_nlink_low () =
  let _w, image = clean_world () in
  let _, entries = find_dir_entries image "a" in
  let ia = entry_inum entries "a" in
  (dinode_of image ia).Types.nlink <- 0;
  let r = check image in
  Alcotest.(check bool) "nlink low detected" true
    (has_violation r (function Fsck.Nlink_low _ -> true | _ -> false))

let test_detects_referenced_free_frag () =
  let _w, image = clean_world () in
  let _, entries = find_dir_entries image "a" in
  let ia = entry_inum entries "a" in
  let frag0 = (dinode_of image ia).Types.db.(0) in
  (* clear the fragment's bits in its group's map *)
  let c = Geom.cg_of_frag geom frag0 in
  (match image.(Geom.cg_header_frag geom c) with
   | Types.Meta (Types.Cgroup cg) ->
     let base = Geom.cg_base geom c in
     for i = 0 to 3 do
       Bytes.set cg.Types.frag_map (frag0 - base + i) '\000'
     done
   | _ -> Alcotest.fail "no cg header");
  let r = check image in
  Alcotest.(check bool) "stale-free is repairable" true (Fsck.ok r);
  Alcotest.(check bool) "stale-free counted" true (r.Fsck.stale_free >= 4)

let test_detects_exposure () =
  let _w, image = clean_world () in
  let _, entries = find_dir_entries image "a" in
  let ia = entry_inum entries "a" in
  let frag0 = (dinode_of image ia).Types.db.(0) in
  (* overwrite a data fragment with another file's stamp *)
  image.(frag0) <- Types.Frag (Types.Written { inum = 999; gen = 7; flbn = 0 });
  let r = check ~exposure:true image in
  Alcotest.(check bool) "exposure detected" true
    (has_violation r (function Fsck.Exposure _ -> true | _ -> false));
  (* and ignored when initialisation is not promised *)
  let r = check ~exposure:false image in
  Alcotest.(check bool) "exposure not checked" true (Fsck.ok r)

let test_detects_leaks () =
  let _w, image = clean_world () in
  let _, entries = find_dir_entries image "a" in
  let ia = entry_inum entries "a" in
  (* drop the entry: inode and blocks leak (repairable, not violations) *)
  (match Types.dir_find entries "a" with
   | Some (slot, _) -> entries.(slot) <- None
   | None -> ());
  ignore ia;
  let r = check image in
  Alcotest.(check bool) "leaks are not violations" true (Fsck.ok r);
  Alcotest.(check bool) "leaked inode counted" true (r.Fsck.leaked_inodes >= 1);
  Alcotest.(check bool) "leaked frags counted" true (r.Fsck.leaked_frags >= 1)

let test_detects_bad_dir () =
  let _w, image = clean_world () in
  let _, entries = find_dir_entries image "d" in
  let id = entry_inum entries "d" in
  let dd = dinode_of image id in
  (* smash the directory's block pointer to unwritten space *)
  dd.Types.db.(0) <- dd.Types.db.(0) + 8;
  let r = check ~exposure:false image in
  Alcotest.(check bool) "bad dir detected" true
    (has_violation r (function Fsck.Bad_dir _ -> true | _ -> false))

let test_nlink_high_repairable () =
  let _w, image = clean_world () in
  let _, entries = find_dir_entries image "a" in
  let ia = entry_inum entries "a" in
  (dinode_of image ia).Types.nlink <- 5;
  let r = check image in
  Alcotest.(check bool) "no violation" true (Fsck.ok r);
  Alcotest.(check bool) "counted as repairable" true (r.Fsck.nlink_high >= 1)

let nothing_to_settle what (r : Fsck.report) =
  Alcotest.(check (list int)) (what ^ ": nothing to settle") [ 0; 0; 0; 0 ]
    [ r.Fsck.nlink_high; r.Fsck.leaked_inodes; r.Fsck.leaked_frags;
      r.Fsck.stale_free ]

let check_repairs_clean what image =
  let o = Fsck.repair ~geom ~image ~check_exposure:true () in
  if not (o.Fsck.converged && Fsck.ok o.Fsck.final) then
    List.iter
      (fun v -> Format.eprintf "%s residual: %a@." what Fsck.pp_violation v)
      o.Fsck.final.Fsck.violations;
  Alcotest.(check bool) (what ^ ": repair converges") true o.Fsck.converged;
  Alcotest.(check bool) (what ^ ": repaired clean") true (Fsck.ok o.Fsck.final);
  nothing_to_settle what o.Fsck.final;
  let log = Imglog.recorder () in
  ignore
    (Fsck.repair ~observer:(Imglog.observe log) ~geom ~image
       ~check_exposure:true ());
  Alcotest.(check int) (what ^ ": second repair writes") 0 (Imglog.count log);
  o

(* An unreadable cylinder-group header is not structural damage: the
   map rebuild rewrites it, so repair must settle in its first round. *)
let test_bad_cg_header () =
  List.iter
    (fun c ->
      let _w, image = clean_world () in
      image.(Geom.cg_header_frag geom c) <- Types.Empty;
      let r = check image in
      Alcotest.(check bool) "reported as Bad_cg" true
        (r.Fsck.violations = [ Fsck.Bad_cg { cg = c } ]);
      Alcotest.(check string) "printed"
        (Printf.sprintf "cylinder group %d: unreadable header" c)
        (Format.asprintf "%a" Fsck.pp_violation (Fsck.Bad_cg { cg = c }));
      let o = check_repairs_clean (Printf.sprintf "cg %d" c) image in
      Alcotest.(check int) "one round" 1 o.Fsck.rounds)
    [ 0; 1 ]

let add_entry entries name inum =
  match Types.dir_free_slot entries with
  | Some s -> entries.(s) <- Some { Types.name; inum }
  | None -> Alcotest.fail "directory block full"

(* Entries naming inodes outside [root_inum, root_inum + total_inodes)
   dangle; they must never index fsck's per-inode tables. *)
let test_out_of_range_entries () =
  let _w, image = clean_world () in
  let _, entries = find_dir_entries image "a" in
  let beyond = Geom.root_inum + Geom.total_inodes geom in
  List.iter
    (fun i -> add_entry entries (Printf.sprintf "z%d" i) i)
    [ 0; 1; beyond ];
  let r = check image in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "inum %d dangles" i)
        true
        (has_violation r (function
          | Fsck.Dangling_entry { inum; _ } -> inum = i
          | _ -> false)))
    [ 0; 1; beyond ];
  ignore (check_repairs_clean "out-of-range entries" image)

let set_entry entries name inum =
  match Types.dir_find entries name with
  | Some (slot, _) -> entries.(slot) <- Some { Types.name; inum }
  | None -> Alcotest.failf "entry %s missing" name

let test_out_of_range_dots () =
  let beyond = Geom.root_inum + Geom.total_inodes geom in
  List.iter
    (fun (name, inum, reason) ->
      let _w, image = clean_world () in
      let _, entries = find_dir_entries image "a" in
      set_entry entries name inum;
      let r = check image in
      Alcotest.(check bool)
        (Printf.sprintf "%s -> %d flagged" name inum)
        true
        (has_violation r (function
          | Fsck.Bad_dir { reason = why; _ } -> why = reason
          | _ -> false));
      ignore (check_repairs_clean (Printf.sprintf "%s -> %d" name inum) image))
    [ (".", beyond, "bad \".\""); (".", 0, "bad \".\"");
      ("..", beyond, "bad \"..\""); ("..", 1, "bad \"..\"") ]

(* Block pointers into the superblock's block (frag 0 is the null
   pointer), past the media, into the inode area, and negative: each a
   violation, never an exception — for a file's direct and indirect
   pointers and for a directory's blocks. *)
let test_out_of_range_pointers () =
  let first_inode_frag, _ = Geom.cg_inode_area geom 0 in
  let nfrags = geom.Geom.nfrags in
  let cases =
    [ ("b", `Direct, 1); ("b", `Direct, nfrags); ("b", `Direct, nfrags - 2);
      ("b", `Direct, first_inode_frag); ("b", `Direct, -8);
      ("a", `Indirect, nfrags); ("a", `Indirect, -1);
      ("d", `Direct, nfrags); ("d", `Direct, 1); ("d", `Direct, -8);
      ("d", `Second, nfrags) ]
  in
  List.iter
    (fun (name, where, ptr) ->
      let what = Printf.sprintf "%s -> %d" name ptr in
      let _w, image = clean_world () in
      let _, entries = find_dir_entries image name in
      let din = dinode_of image (entry_inum entries name) in
      (match where with
       | `Direct -> din.Types.db.(0) <- ptr
       | `Second ->
         (* the first block stays readable: its entries are reached
            before repair truncates the directory *)
         din.Types.db.(1) <- ptr;
         din.Types.size <- 2 * Geom.block_bytes geom
       | `Indirect -> din.Types.ib <- ptr);
      let r = check ~exposure:true image in
      Alcotest.(check bool) (what ^ " flagged") true
        (has_violation r (function
          | Fsck.Bad_pointer _ | Fsck.Bad_dir _ -> true
          | _ -> false));
      ignore (check_repairs_clean what image))
    cases

(* Report order: walk order, then Nlink_low by ascending inum, then
   Bad_cg, then Csum_mismatch; Fixed_nlink actions by ascending inum.
   The walk meets b before a here, and b's link count is broken
   first. *)
let test_report_order () =
  let _w, image = clean_world () in
  let _, entries = find_dir_entries image "a" in
  let ia = entry_inum entries "a" and ib = entry_inum entries "b" in
  Alcotest.(check bool) "a has the lower inum" true (ia < ib);
  (match Types.dir_find entries "a", Types.dir_find entries "b" with
   | Some (sa, ea), Some (sb, eb) ->
     entries.(sa) <- Some eb;
     entries.(sb) <- Some ea
   | _ -> Alcotest.fail "entries missing");
  (dinode_of image ib).Types.nlink <- 0;
  (dinode_of image ia).Types.nlink <- 0;
  add_entry entries "ghost" 0;
  let last_cg = Geom.cg_count geom - 1 in
  image.(Geom.cg_header_frag geom last_cg) <- Types.Empty;
  let csum = Array.map Types.cell_digest image in
  let bad_frag = Geom.cg_header_frag geom 0 in
  csum.(bad_frag) <- csum.(bad_frag) + 1;
  let image = Array.append image [| Types.Csum csum |] in
  let r = check image in
  let dir = entry_inum (snd (find_dir_entries image "d")) "d" in
  Alcotest.(check (list string)) "report order"
    (List.map
       (Format.asprintf "%a" Fsck.pp_violation)
       [ Fsck.Dangling_entry { dir; name = "ghost"; inum = 0 };
         Fsck.Nlink_low { inum = ia; nlink = 0; refs = 1 };
         Fsck.Nlink_low { inum = ib; nlink = 0; refs = 1 };
         Fsck.Bad_cg { cg = last_cg };
         Fsck.Csum_mismatch { frag = bad_frag } ])
    (List.map (Format.asprintf "%a" Fsck.pp_violation) r.Fsck.violations);
  let o = check_repairs_clean "order" image in
  Alcotest.(check (list int)) "Fixed_nlink ascending" [ ia; ib ]
    (List.filter_map
       (function Fsck.Fixed_nlink { inum; _ } -> Some inum | _ -> None)
       o.Fsck.actions)

(* Every crash state of No Order and soft updates over the built-in
   crash workloads: after one repair a fresh check finds nothing, not
   even a leak, and a second repair writes nothing. *)
let test_repair_leaves_nothing_to_settle () =
  List.iter
    (fun (scheme, want_states, want_dirty) ->
      let cfg = Su_check.Campaign.compact_cfg scheme in
      let geom = cfg.Fs.geom in
      let check_exposure = Su_check.Campaign.check_exposure cfg in
      let states = ref 0 and dirty = ref 0 in
      List.iter
        (fun wl ->
          let r = Su_check.Explorer.record ~cfg wl in
          let cursor =
            Su_check.Delta.cursor ~initial:r.Su_check.Explorer.rec_initial
              ~log:r.Su_check.Explorer.rec_deltas
          in
          Array.iter
            (fun st ->
              incr states;
              let image = Su_check.Explorer.materialize cursor st in
              let what =
                Printf.sprintf "%s/%s state %d" (Fs.scheme_kind_name scheme)
                  wl.Su_check.Explorer.wl_name !states
              in
              if not (Fsck.ok (Fsck.check ~geom ~image ~check_exposure)) then
                incr dirty;
              ignore (Fsck.repair ~geom ~image ~check_exposure ());
              let r = Fsck.check ~geom ~image ~check_exposure in
              Alcotest.(check bool) (what ^ ": clean") true (Fsck.ok r);
              nothing_to_settle what r;
              let log = Imglog.recorder () in
              ignore
                (Fsck.repair ~observer:(Imglog.observe log) ~geom ~image
                   ~check_exposure ());
              Alcotest.(check int) (what ^ ": second repair writes") 0
                (Imglog.count log))
            (Su_check.Explorer.crash_states r))
        Su_check.Explorer.builtin_workloads;
      Alcotest.(check int) "states" want_states !states;
      Alcotest.(check int) "states with violations" want_dirty !dirty)
    [ (Fs.No_order, 281, 116); (Fs.Soft_updates, 433, 0) ]

(* Repair reports the first round's check as [initial] and may reuse
   its last clean round's report as [final] when nothing was written
   after it. Over every crash state of the six schemes and the
   built-in workloads, recovered as the judging tail recovers them,
   both must be what a separate check reads. *)
let test_repair_reports_match_checks () =
  List.iter
    (fun scheme ->
      let cfg = Su_check.Campaign.compact_cfg scheme in
      let geom = cfg.Fs.geom in
      let check_exposure = Su_check.Campaign.check_exposure cfg in
      List.iter
        (fun wl ->
          let r = Su_check.Explorer.record ~cfg wl in
          let cursor =
            Su_check.Delta.cursor ~initial:r.Su_check.Explorer.rec_initial
              ~log:r.Su_check.Explorer.rec_deltas
          in
          Array.iter
            (fun ((k, torn) as st) ->
              let what =
                Printf.sprintf "%s/%s k=%d torn=%s" (Fs.scheme_kind_name scheme)
                  wl.Su_check.Explorer.wl_name k
                  (match torn with None -> "-" | Some a -> string_of_int a)
              in
              let image = Su_check.Explorer.materialize cursor st in
              Fs.recover_image cfg image;
              let before = Fsck.check ~geom ~image ~check_exposure in
              let o = Fsck.repair ~geom ~image ~check_exposure () in
              if o.Fsck.initial <> before then
                Alcotest.failf "%s: initial differs from a check before repair"
                  what;
              if o.Fsck.final <> Fsck.check ~geom ~image ~check_exposure then
                Alcotest.failf "%s: final differs from a check after repair" what)
            (Su_check.Explorer.crash_states r))
        Su_check.Explorer.builtin_workloads)
    (Fs.all_schemes @ [ Fs.Journaled { group_commit = false } ])

let suite =
  [
    Alcotest.test_case "clean baseline" `Quick test_clean_baseline;
    Alcotest.test_case "detects dangling entry" `Quick test_detects_dangling_entry;
    Alcotest.test_case "detects cross allocation" `Quick
      test_detects_cross_allocation;
    Alcotest.test_case "detects nlink low" `Quick test_detects_nlink_low;
    Alcotest.test_case "stale-free frag repairable" `Quick
      test_detects_referenced_free_frag;
    Alcotest.test_case "detects exposure" `Quick test_detects_exposure;
    Alcotest.test_case "leaks are repairable" `Quick test_detects_leaks;
    Alcotest.test_case "detects bad dir" `Quick test_detects_bad_dir;
    Alcotest.test_case "nlink high repairable" `Quick test_nlink_high_repairable;
    Alcotest.test_case "bad cg header repairs in one round" `Quick
      test_bad_cg_header;
    Alcotest.test_case "out-of-range entries" `Quick test_out_of_range_entries;
    Alcotest.test_case "out-of-range dots" `Quick test_out_of_range_dots;
    Alcotest.test_case "out-of-range pointers" `Quick test_out_of_range_pointers;
    Alcotest.test_case "report and action order" `Quick test_report_order;
    Alcotest.test_case "repair leaves nothing to settle" `Slow
      test_repair_leaves_nothing_to_settle;
    Alcotest.test_case "repair reports match fresh checks" `Slow
      test_repair_reports_match_checks;
  ]
