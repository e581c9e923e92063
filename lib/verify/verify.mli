(** Schedule verification: statically prove a rewrite schedule safe
    against the binary it rewrites, before the DBM ever applies it.

    The linter treats the .jrs/.jx pair the way a loader treats a
    relocation table — every cross-reference must land, every paired
    construct must close, every claim the schedule makes about machine
    state (a register is dead, two memory regions are disjoint, an
    iterator walks a known direction) must be provable from the binary
    alone. Violations are reported as findings, never fixed silently;
    {!check_and_demote} then degrades offending loops to sequential
    execution so a bad schedule can cost performance but not
    correctness. *)

open Janus_vx
open Janus_analysis
module Schedule = Janus_schedule.Schedule
module Rule = Janus_schedule.Rule

(** The linter's rule-set version. Verdicts are memoised and persisted
    under it ({!Janus_core.Pipeline.verify}), so bump this whenever a
    lint rule, a finding, or {!check_and_demote}'s demotion policy
    changes: a memoised verdict then misses instead of serving a stale
    one. *)
val version : string

type severity = Error | Warning | Info

type finding = {
  severity : severity;
  code : string;      (** stable machine-readable class, e.g. ["dangling-address"] *)
  addr : int option;  (** trigger address, when rule-scoped *)
  lid : int option;   (** loop id, when attributable *)
  message : string;
}

val severity_name : severity -> string
val pp_finding : Format.formatter -> finding -> unit

(** The loop id a rule belongs to, when its encoding carries one
    (LOOP_UPDATE_BOUND is the one parallelisation rule that does not). *)
val rule_lid : Rule.t -> int option

(** Lint a schedule against the image it was generated for. [pool]
    shards the per-descriptor deep checks (liveness, loop forests) by
    containing function and the fission re-analysis by function;
    findings are merged in deterministic lid order, so the report is
    byte-identical with or without a pool, at any [--jobs]. *)
val lint : ?pool:Janus_pool.Pool.t -> Image.t -> Schedule.t -> finding list

(** Re-derive every analysable loop's dependence verdict with
    {!Memdep} and report disagreements with the classifier. *)
val crosscheck : Analysis.t -> finding list

val has_errors : finding list -> bool

(** Loop ids carrying at least one [Error] finding. *)
val failed_loops : finding list -> int list

(** Remove every rule belonging to the given loops (plus the
    LOOP_UPDATE_BOUND rules inside their bodies), leaving the rest of
    the schedule intact: those loops run sequentially under the DBM. *)
val demote : Image.t -> Schedule.t -> int list -> Schedule.t

(** Lint, then demote every loop with an error — or, when an error
    cannot be attributed to a loop, drop the whole rule list (a pure
    DBM run is always sequentially correct). Returns the (possibly
    reduced) schedule, the demoted loop ids and the findings. *)
val check_and_demote :
  ?pool:Janus_pool.Pool.t ->
  Image.t -> Schedule.t -> Schedule.t * int list * finding list
