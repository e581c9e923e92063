(** Rewrite schedules: the only channel between the static analyser and
    the dynamic binary modifier (§II-A1).

    A schedule is a header, a list of fixed-length rewrite rules sorted
    by trigger address, and a data section of structured descriptors
    that rules reference by byte offset. *)

type channel = Profiling | Parallelisation

type t = {
  channel : channel;
  rules : Rule.t list;   (** sorted by address, stable per address *)
  data : bytes;          (** descriptor pool *)
}

(** {1 Construction} *)

type builder

val builder : channel -> builder
val add_rule : builder -> Rule.t -> unit

(** Store a loop descriptor in the pool, returning the byte offset to
    carry in a rule's [data] field. *)
val add_loop_desc : builder -> Desc.loop_desc -> int

val add_check_desc : builder -> Desc.check_desc -> int
val add_fission_desc : builder -> Desc.fission_desc -> int

(** Finish: sorts rules by address, preserving insertion order within
    one address (transformation order is defined by the analyser,
    §II-A2). *)
val build : builder -> t

(** {1 Queries} *)

val loop_desc : t -> int64 -> Desc.loop_desc
val check_desc : t -> int64 -> Desc.check_desc
val fission_desc : t -> int64 -> Desc.fission_desc

(** Rules indexed by trigger address (the DBM's rule hash table). *)
val index : t -> (int, Rule.t list) Hashtbl.t

(** {1 Serialisation} *)

val to_bytes : t -> bytes

exception Bad_schedule of string

(** Decode {!to_bytes}'s layout: a 13-byte header (magic, channel, rule
    count, data length), the fixed-length rules, then exactly the data
    section. Descriptors are not decoded here ({!Janus_verify.Verify}
    owns their validity).
    @raise Bad_schedule on a bad magic or channel, a rule count the
    buffer cannot hold, an unknown rule id or a total length that
    disagrees with the header — and on nothing else. *)
val of_bytes : bytes -> t

(** Schedule size in bytes — the numerator of Fig. 10. *)
val size : t -> int

val pp : Format.formatter -> t -> unit
