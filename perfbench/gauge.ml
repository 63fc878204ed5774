(* Host-speed gauge: calibrates the benchmark's host timings against a
   fixed piece of reference work.

   The benchmark runs on a few cores of a shared host, whose speed drifts
   by tens of percent over seconds and minutes as other tenants come and
   go. A raw host timing then says as much about the neighbours as about
   the program. The gauge runs a short reference kernel (see below; no
   OCaml allocation, so GC counters are untouched) every [period]
   seconds of measured work and in bursts around calls it cannot
   interrupt. A measured interval is cut at the gauge samples it
   contains; each piece of work is rescaled by [nominal] over the median
   gauge time of the samples nearest to it, and the gauge's own time is
   left out.

   So a calibrated second is a second of work at the host speed at which
   the kernel takes [nominal] seconds. The kernel is the benchmark's own
   code and uses only the standard library: no change to the simulator
   can move it. *)

(* About the kernel's time on a lightly loaded 2-core Intel Xeon x86-64
   host, so calibrated seconds read close to that host's seconds. *)
let nominal = 0.001
let period = 0.04
let burst_len = 5
let window = 5  (* samples on each side of a piece of work *)

(* The kernel has two parts. [compute] walks a ring that fits a core's
   private caches, mixing in integer hashing; each sample first walks
   the ring once untimed, so the timed walk runs from warm caches
   whatever the program did before. [stream] reads a 4 MB array in
   order, twice the size of a core's L2, so every pass reads it from the
   shared cache or memory. Neither depends on the program's own memory
   footprint. Of the kernels tried on the 2-core host (these two, a
   pointer chase through a 32 MB ring, a binary search over 8 MB, an
   allocating one), this pair followed the program's own timings best
   across shifts in host speed. *)
let small_len = 1 lsl 11

let small =
  let r = Bigarray.Array1.create Bigarray.int Bigarray.c_layout small_len in
  for i = 0 to small_len - 1 do
    r.{i} <- i
  done;
  (* Sattolo's shuffle with a fixed xorshift: one cycle through every slot *)
  let x = ref 0x2545F4914F6CDD1D in
  for i = small_len - 1 downto 1 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = (!x land max_int) mod i in
    let t = r.{i} in
    r.{i} <- r.{j};
    r.{j} <- t
  done;
  r

let compute_steps = 20000
let stream_len = 1 lsl 19

let block =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout stream_len in
  Bigarray.Array1.fill b 1;
  b

let sink = ref 0

let compute steps =
  let p = ref 0 and h = ref 0 in
  for _ = 1 to steps do
    p := Bigarray.Array1.unsafe_get small !p;
    h := (!h lxor !p) * 0x100000001B3;
    if !h land 4 = 0 then h := !h lxor (!h lsr 29) else h := !h + 0x9E3779B9;
    for _ = 1 to 8 do
      h := (!h lsl 5) - !h + (!h lsr 11)
    done
  done;
  sink := !sink lxor !h

let stream () =
  let acc = ref 0 in
  for i = 0 to stream_len - 1 do
    acc := !acc + Bigarray.Array1.unsafe_get block i
  done;
  sink := !sink lxor !acc

(* Samples, in time order: start and end (warm-up included) and the
   timed kernel's duration. *)
let starts = ref (Array.make 1024 0.0)
let ends = ref (Array.make 1024 0.0)
let durs = ref (Array.make 1024 0.0)
let n = ref 0
let last = ref 0.0

(* Forget every sample (a forked child starts afresh). *)
let clear () =
  n := 0;
  last := 0.0

let sample () =
  let s = Unix.gettimeofday () in
  compute small_len;
  let t0 = Unix.gettimeofday () in
  compute compute_steps;
  stream ();
  let t1 = Unix.gettimeofday () in
  if !n = Array.length !starts then begin
    let grow a = Array.append a (Array.make !n 0.0) in
    starts := grow !starts;
    ends := grow !ends;
    durs := grow !durs
  end;
  !starts.(!n) <- s;
  !ends.(!n) <- t1;
  !durs.(!n) <- t1 -. t0;
  incr n;
  last := t1

(* Called between pieces of measured work: samples once [period] has
   passed since the last sample. *)
let tick () = if Unix.gettimeofday () -. !last >= period then sample ()

(* Several samples in a row, around a call the gauge cannot interrupt. *)
let burst () =
  for _ = 1 to burst_len do
    sample ()
  done

(* Median gauge time of the samples around the gap before sample [i]. *)
let local i =
  let lo = max 0 (i - window) and hi = min !n (i + window) in
  let a = Array.sub !durs lo (hi - lo) in
  Array.sort Float.compare a;
  a.((Array.length a - 1) / 2)

(* Calibrated seconds of the work done in the host interval [a, b]. The
   caller ends the interval with a [burst], so samples lie on both sides
   of it. *)
let calibrated a b =
  if !n = 0 then b -. a
  else begin
    let total = ref 0.0 and cur = ref a and i = ref 0 in
    let piece hi =
      if hi > !cur then total := !total +. ((hi -. !cur) *. nominal /. local !i)
    in
    while !i < !n && !starts.(!i) < a do
      incr i
    done;
    while !i < !n && !starts.(!i) < b do
      piece !starts.(!i);
      cur := Float.max !cur !ends.(!i);
      incr i
    done;
    piece b;
    !total
  end

(* Every sample's kernel time, for the per-layer report. *)
let times () = Array.sub !durs 0 !n
