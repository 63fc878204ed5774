(** Hierarchical bitset over non-negative ints.

    A mutable set of small dense integers (request ids, logical block
    numbers) supporting O(1) {!set}/{!clear}/{!mem} and
    O(levels){!next_geq}, all allocation-free — the driver's dispatch
    index runs on these instead of functional [Set]/[Map] structures.
    Membership words are backed by flat int arrays with one summary
    level per 32x fan-out, so successor queries skip empty regions a
    word at a time at every level. Capacity grows automatically (and
    never shrinks). *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty set; [capacity] preallocates room for indices
    [0 .. capacity-1] (it is a hint — sets beyond it grow the
    structure). *)

val load_zero_bytes : t -> Bytes.t -> unit
(** [load_zero_bytes t map] replaces the members of [t] with the
    indices [i] where [map] holds ['\000'] — the free slots of a
    byte-per-slot allocation map — building each membership word from
    32 map bytes and then the summary levels, instead of one {!set}
    per member. Capacity becomes [Bytes.length map] rounded up to a
    multiple of 32. *)

val capacity : t -> int
(** Current addressable universe size (multiple of 32). *)

val mem : t -> int -> bool
(** Membership; indices outside the current capacity (or negative)
    are not members. *)

val set : t -> int -> unit
(** Add an index, growing if needed. Negative indices are an error. *)

val clear : t -> int -> unit
(** Remove an index; out-of-range indices are a no-op. *)

val next_geq : t -> int -> int
(** [next_geq t i] is the smallest member [>= i], or [-1] if none.
    Negative [i] is treated as [0]. *)

val min_elt : t -> int
(** Smallest member, or [-1] if empty. *)

val is_empty : t -> bool

val iter : t -> (int -> unit) -> unit
(** Apply to every member in increasing order. *)
