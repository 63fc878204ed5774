(** Open-loop multi-tenant load engine.

    Thousands of concurrent {!Su_sim.Proc} clients, each drawing a
    seeded per-tenant mix of create/write/rename/unlink/mkdir over its
    own namespace subtree, with fixed-rate or Poisson arrivals under a
    load shape ([fixed], [rampup], [pausing], [shaped]). Arrivals are
    scheduled independently of completions (open loop); measured
    latency is completion minus scheduled arrival, self-queueing
    included, over the steady-state window [warmup, duration).

    The rendered report is a pure function of the configuration:
    byte-identical at any [jobs] value. Host-side wall clock and GC
    measurements live in separate {!report} fields and never enter the
    table or JSON. *)

type shape = Fixed | Rampup | Pausing | Shaped
type arrival = Fixed_rate | Poisson
type op_class = Op_create | Op_write | Op_rename | Op_unlink | Op_mkdir

val shape_name : shape -> string
val shape_of_string : string -> shape option
val all_shapes : shape list
val arrival_name : arrival -> string
val arrival_of_string : string -> arrival option

val nclasses : int
val class_name : op_class -> string
val class_index : op_class -> int
val class_of_index : int -> op_class

type config = {
  fs_cfg : Su_fs.Fs.config;
  clients : int;
  rate : float;  (** per-client operations per simulated second *)
  shape : shape;
  arrival : arrival;
  duration : float;  (** simulated seconds, from time zero *)
  warmup : float;  (** steady-state window is [warmup, duration) *)
  files_per_client : int;  (** pre-created files per tenant *)
  shards : int;  (** independent worlds, split by client id *)
  seed : int;
}

val config : ?scheme:Su_fs.Fs.scheme_kind -> unit -> config
(** Defaults: 200 clients, 0.1 ops/s/client Poisson, shape [fixed],
    60 s duration with 15 s warmup, 8 files per tenant, 1 shard,
    seed 17, and an {!Su_fs.Fs.config} with the directory index on. *)

type report = {
  class_hist : Su_obs.Hist.t array;
      (** measured latency (seconds) per op class, [nclasses] long,
          indexed by {!class_index} *)
  total_hist : Su_obs.Hist.t;
  executed : int;
      (** operations issued in the steady phase, inside the window or
          not (setup excluded) — the denominator for host throughput *)
  host_wall_s : float;
      (** host seconds in the steady phase, summed across shards
          (serial-equivalent; NOT deterministic) *)
  minor_words : float;  (** steady-phase minor allocation (host-side) *)
  major_collections : int;  (** steady-phase major collections *)
}

val run : ?jobs:int -> config -> report
(** Run [shards] independent worlds (fanned over {!Su_util.Pool} with
    [jobs] workers) and merge their histograms by shard index.
    @raise Invalid_argument on an inconsistent configuration. *)

val start : config -> Su_fs.Fs.world
(** Make the first shard's world (every client when [shards = 1]) and
    spawn its load into it without running the engine: the caller
    drives it, for example to a crash with {!Su_fs.Crash.crash_at}.
    @raise Invalid_argument on an inconsistent configuration. *)

val window : config -> float
val measured_ops : report -> int
val throughput : config -> report -> float
(** Measured ops per simulated second of steady-state window. *)

val report_table : config -> report -> Su_util.Text_table.t
(** Per-class rows plus an [all] row: ops, ops/s, p50/p90/p99/max ms.
    Deterministic. *)

val report_json : config -> report -> Su_obs.Json.t
(** Same content as {!report_table} plus the config echo; see
    EXPERIMENTS.md for the schema. Deterministic. *)
