(** Statically-driven profiling (§II-C).

    The analyser's profiling rewrite schedule drives instrumentation
    inside the same DBM that later parallelises the program: only the
    loops of interest are instrumented, and for dependence profiling
    only the accesses the static pass could not disambiguate — not all
    loads and stores. One training run yields both profiles. *)

module Analysis = Janus_analysis.Analysis

(** Per-loop coverage counters from a training run. *)
type loop_cov = {
  mutable self_insns : int;   (** instructions attributed to this loop *)
  mutable invocations : int;
  mutable iterations : int;
  mutable ex_calls : int;     (** external (PLT) calls inside the loop *)
  mutable ex_insns : int;     (** instructions inside those calls *)
  mutable ex_reads : int;     (** their non-stack reads *)
  mutable ex_writes : int;
}

type coverage = {
  total_insns : int;
  loops : (int, loop_cov) Hashtbl.t;  (** loop id -> counters *)
}

(** Counters for a loop (zeros if never observed). *)
val cov_of : coverage -> int -> loop_cov

(** Fraction of all dynamic instructions spent inside a loop. *)
val fraction : coverage -> int -> float

(** Average iterations per invocation. *)
val avg_trip : coverage -> int -> float

(** Average instructions per invocation — the profitability signal
    behind the paper's "high invocation count" filter (§III-B). *)
val avg_work : coverage -> int -> float

(** The loop ids the coverage run observed, sorted ascending — the
    deterministic iteration order serialisers need (hashtable order is
    not canonical). *)
val loop_ids : coverage -> int list

(** The shadow word-map behind dependence detection (§II-C): watched
    accesses are recorded word by word with the iteration that touched
    them; a word touched from two different iterations with at least
    one write is a cross-iteration dependence. Shared by the offline
    dependence profiler (iterations counted by ITER rules) and the
    runtime's training-free online sampler (iterations identified by
    the induction-variable value) — the map is agnostic to how the
    caller names iterations. *)
module Shadow : sig
  type t

  val create : unit -> t

  (** Forget all recorded words and any found dependence (fresh loop
      invocation). *)
  val reset : t -> unit

  (** Record one access of [bytes] bytes at [addr] during [iter]. *)
  val access : t -> iter:int -> addr:int -> bytes:int -> write:bool -> unit

  (** Has any cross-iteration dependence been seen since the last
      {!reset}? *)
  val found : t -> bool
end

(** The dependence profile of a training run. *)
type deps = {
  dep_found : (int, bool) Hashtbl.t;  (** loop id -> cross-iteration dep *)
  observed : (int, bool) Hashtbl.t;   (** loop id executed at all *)
}

val has_dep : deps -> int -> bool
val was_observed : deps -> int -> bool

(** The loop ids the dependence run touched (observed or flagged),
    sorted ascending. *)
val dep_loop_ids : deps -> int list

(** The training run: interpret {!Janus_analysis.Rulegen.profiling_schedule}
    over [input] under the DBM, for at most [fuel] dispatches, and
    return its coverage and dependence profiles. Dependence state
    exists only for Ambiguous loops, whose unresolved accesses are the
    only ones watched. *)
val run :
  ?fuel:int -> ?input:int64 list -> Janus_vx.Image.t -> Analysis.t ->
  coverage * deps
