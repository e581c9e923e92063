(** Rewrite-schedule generation (Fig. 2(a)): encode analysis results as
    rewrite rules and descriptors for the DBM to interpret. *)

module Rule = Janus_schedule.Rule
module Schedule = Janus_schedule.Schedule
module Desc = Janus_schedule.Desc
module Rexpr = Janus_schedule.Rexpr

(** Build the loop descriptor for a selected loop ([None] when the loop
    cannot be encoded — e.g. no expressible bound). *)
val loop_desc :
  Cfg.t -> Loopanal.report -> policy:Desc.policy -> Desc.loop_desc option

(** The runtime bounds check over a selected loop's array footprints
    (Fig. 4) that its MEM_BOUNDS_CHECK rule carries; [None] when the
    loop's parallel version needs no check. *)
val check_desc : Loopanal.report -> Desc.check_desc option

(** The profiling schedule a training run interprets (§II-C):
    PROF_LOOP_START/ITER/FINISH for every feasible loop, EXCALL probes
    around its shared-library calls, and PROF_MEM_ACCESS on exactly the
    statically unresolved, non-stack accesses of ambiguous loops. *)
val profiling_schedule : Cfg.t -> Loopanal.report list -> Schedule.t

(** Distance in bytes a MEM_PREFETCH hint runs ahead of its access. *)
val prefetch_distance : int

(** Parallelisation schedule for the selected loops; also returns the
    subset that could actually be encoded. With [prefetch], each
    encoded loop's strided accesses additionally get MEM_PREFETCH
    rules (software-prefetching extension; pair with
    [Machine.model_cache] so the hidden latency is modelled). With
    [fission], a selected Static-Dependence loop is encoded as a
    LOOP_FISSION schedule when {!Depgraph.plan} finds a distribution
    into a DOALL product plus a sequential residue (loop-fission
    extension); without it such loops are dropped as unencodable. *)
val parallel_schedule :
  ?prefetch:bool ->
  ?fission:bool ->
  Cfg.t ->
  (Loopanal.report * Desc.policy) list ->
  Schedule.t * Loopanal.report list
