(** Shared-library code, materialised as VX64 fragments at
    {!Janus_vx.Layout.lib_base} when a program is loaded.

    This code is {e not} part of the JX image, so the static analyser
    never sees it — it is discovered at runtime by the DBM, exactly
    like the paper's [pow@plt] in bwaves (§II-E3). Each function reads
    a constant table in library data (heap reads, no writes), giving
    speculative calls the paper's observed footprint of ~50
    instructions with ~10 heap reads and zero writes. *)

open Janus_vx

type t = {
  code : Code.t;                 (** decoded at {!Layout.lib_base} *)
  entries : (string * int) list; (** function name -> entry address *)
  data : bytes;                  (** loaded at {!Layout.lib_data_base} *)
}

(** Largest pow exponent the multiply-loop implementation supports. *)
val max_pow_exponent : int

val exp_terms : int

(** Build the library fragments ([pow], [sqrt], [exp]). *)
val build : unit -> t

(** The name the VM intercepts for compiler-parallelised binaries. *)
val intrinsic_par_for : string

val entry : t -> string -> int option
