(* In-core free-resource index for one cylinder group.

   The authoritative allocation state is the byte-per-fragment
   [frag_map] / byte-per-inode [inode_map] inside the group's cached
   {!Su_fstypes.Types.cg} block; those bytes are what crashes, fsck
   and journal replay see. This module mirrors them into two
   {!Su_util.Bitset}s (members = free indices) so the allocator's
   searches are O(levels) successor queries instead of O(group-size)
   byte scans. The mirror is built lazily from the map bytes on first
   use and updated alongside every byte mutation, all under
   [State.alloc_mutex], so it never disagrees with the bytes.

   [find_run] is an exact reimplementation of the historical stepped
   byte scan: it returns the same offset the byte scan would for every
   (map, rotor, count, aligned) input — first fit in rotor order with
   wraparound — so switching to it changes no allocation decision, no
   charge and no I/O, and the golden trace digests stay bit-identical.
   The equivalence is property-tested against a reference byte scan in
   [test_alloc]. *)

module Bitset = Su_util.Bitset

type t = {
  mutable built : bool;
  free : Bitset.t;  (* group-relative offsets of free fragments *)
  ifree : Bitset.t;  (* free inode slots within the group *)
}

let create () =
  { built = false; free = Bitset.create (); ifree = Bitset.create () }

let built t = t.built

let ensure t (cg : Su_fstypes.Types.cg) =
  if not t.built then begin
    Bitset.load_zero_bytes t.free cg.Su_fstypes.Types.frag_map;
    Bitset.load_zero_bytes t.ifree cg.Su_fstypes.Types.inode_map;
    t.built <- true
  end

let note_claim t ~off ~count =
  for i = off to off + count - 1 do
    Bitset.clear t.free i
  done

let note_release t ~off ~count =
  for i = off to off + count - 1 do
    Bitset.set t.free i
  done

let note_inode_claim t j = Bitset.clear t.ifree j
let note_inode_release t j = Bitset.set t.ifree j

let min_free_inode t = Bitset.min_elt t.ifree

(* Smallest offset [>= a0 (mod fpb)] that is [>= x]; [a0] is the
   group-relative offset of the first block-aligned fragment. *)
let align_up ~a0 ~fpb x =
  if x <= a0 then a0 else a0 + ((x - a0 + fpb - 1) / fpb * fpb)

let find_run t ~base ~rel_first ~total ~fpb ~rotor ~count ~aligned =
  let area_end = rel_first + total in
  let a0 = (fpb - (base mod fpb)) mod fpb in
  let norm off =
    let off = if off < rel_first then rel_first else off in
    rel_first + ((off - rel_first) mod total)
  in
  let start =
    let s = norm rotor in
    if aligned then
      let skew = (base + s) mod fpb in
      if skew = 0 then s else norm (s + (fpb - skew))
    else s
  in
  (* first allocated fragment in [a, b), or -1 when the run is free *)
  let first_used a b =
    let rec go i =
      if i >= b then -1 else if Bitset.mem t.free i then go (i + 1) else i
    in
    go a
  in
  (* First fitting offset in [p, hi): jump to the next free fragment,
     derive the only candidate start that could still succeed, probe
     its run, and on a conflict resume past the conflicting fragment —
     every offset skipped over is one the byte scan would also have
     rejected. *)
  let rec seg p hi =
    if p >= hi then None
    else
      let q = Bitset.next_geq t.free p in
      if q < 0 || q >= hi then None
      else if aligned then begin
        let o = align_up ~a0 ~fpb q in
        if o >= hi || o + count > area_end then None
        else
          match first_used o (o + count) with
          | -1 -> Some o
          | r -> seg (r + 1) hi
      end
      else begin
        let in_block_off = (base + q) mod fpb in
        if in_block_off + count > fpb then seg (align_up ~a0 ~fpb (q + 1)) hi
        else if q + count > area_end then None
        else
          match first_used q (q + count) with
          | -1 -> Some q
          | r -> seg (r + 1) hi
      end
  in
  match seg start area_end with
  | Some _ as r -> r
  | None -> if start > rel_first then seg rel_first start else None
