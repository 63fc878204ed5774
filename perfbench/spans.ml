(* In-memory span store for the traced pass.

   A span brackets one call the benchmark makes into a layer: its host
   start/end (wall seconds), its simulated start/end when the call runs
   inside a simulated process (nan otherwise), its parent span and the
   simulated actor (tenant or user) that issued it. Spans are only
   recorded while [on] is set; the untraced pass pays one bool test per
   call. Pool workers record from other domains, hence the mutex. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  layer : string;
  name : string;
  actor : int;  (** tenant or user number, -1 when none *)
  h0 : float;
  h1 : float;
  s0 : float;
  s1 : float;
}

let on = ref false
let lock = Mutex.create ()
let next_id = Atomic.make 1

let empty () =
  Array.make 1024
    { id = 0; parent = 0; layer = ""; name = ""; actor = -1; h0 = 0.0;
      h1 = 0.0; s0 = nan; s1 = nan }

let store = ref (empty ())
let count = ref 0

(* Drop every recorded span (a forked child starts from an empty store). *)
let clear () =
  Mutex.protect lock (fun () ->
      store := empty ();
      count := 0)

let fresh () = Atomic.fetch_and_add next_id 1

let add sp =
  Mutex.protect lock (fun () ->
      if !count = Array.length !store then begin
        let bigger = Array.make (2 * !count) sp in
        Array.blit !store 0 bigger 0 !count;
        store := bigger
      end;
      !store.(!count) <- sp;
      incr count)

let all () = Mutex.protect lock (fun () -> Array.sub !store 0 !count)

(* [within ~id ~parent ~layer ~name ?sim f] runs [f], recording a span
   when tracing is on. [id] lets the caller hand the span's id to child
   spans before it closes. [sim] reads the simulated clock. *)
let within ?id ?(parent = 0) ?(actor = -1) ?sim ~layer ~name f =
  if not !on then f ()
  else begin
    let id = match id with Some i -> i | None -> fresh () in
    let clock () = match sim with Some c -> c () | None -> nan in
    let s0 = clock () in
    let h0 = Unix.gettimeofday () in
    let close () =
      add
        { id; parent; layer; name; actor; h0; h1 = Unix.gettimeofday ();
          s0; s1 = clock () }
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

(* Wall time attributed to each layer: every instant goes to the
   deepest span open at that instant (a span's depth is its parent's
   plus one). For a span with no overlapping siblings this is its
   duration minus the part of it its children cover; spans of one
   layer that overlap in time (simulated processes interleaving their
   syscalls, pool workers on two domains) count their union once. *)
let self_times spans =
  let by_id = Hashtbl.create (Array.length spans) in
  Array.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let depths = Hashtbl.create (Array.length spans) in
  let rec depth s =
    match Hashtbl.find_opt depths s.id with
    | Some d -> d
    | None ->
      let d =
        match Hashtbl.find_opt by_id s.parent with
        | Some p when s.parent <> 0 -> 1 + depth p
        | _ -> 0
      in
      Hashtbl.replace depths s.id d;
      d
  in
  let events =
    Array.concat
      [ Array.map (fun s -> (s.h0, 1, depth s, s.layer)) spans;
        Array.map (fun s -> (s.h1, -1, depth s, s.layer)) spans ]
  in
  Array.sort (fun (a, _, _, _) (b, _, _, _) -> Float.compare a b) events;
  let maxd = Array.fold_left (fun m (_, _, d, _) -> max m d) 0 events in
  let open_at = Array.make (maxd + 1) 0 in
  let layers_at = Array.init (maxd + 1) (fun _ -> Hashtbl.create 8) in
  let self = Hashtbl.create 16 in
  let credit dt =
    let rec deepest d =
      if d < 0 then ()
      else if open_at.(d) > 0 then
        match
          Hashtbl.fold
            (fun l n acc -> if n > 0 && acc = None then Some l else acc)
            layers_at.(d) None
        with
        | Some l ->
          Hashtbl.replace self l
            (dt +. Option.value ~default:0.0 (Hashtbl.find_opt self l))
        | None -> ()
      else deepest (d - 1)
    in
    deepest maxd
  in
  let prev = ref nan in
  Array.iter
    (fun (t, delta, d, layer) ->
      if Float.is_finite !prev && t > !prev then credit (t -. !prev);
      prev := t;
      open_at.(d) <- open_at.(d) + delta;
      let tbl = layers_at.(d) in
      Hashtbl.replace tbl layer
        (delta + Option.value ~default:0 (Hashtbl.find_opt tbl layer)))
    events;
  self

(* One tab-separated line per span, header first. *)
let write path spans =
  let oc = open_out path in
  output_string oc "id\tparent\tlayer\tname\tactor\thost_start\thost_end\tsim_start\tsim_end\n";
  Array.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%s\t%d\t%.6f\t%.6f\t%.9g\t%.9g\n" s.id
        s.parent s.layer s.name s.actor s.h0 s.h1 s.s0 s.s1)
    spans;
  close_out oc
