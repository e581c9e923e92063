(** Checked files: the layout the artifact store's [.jart] entries and
    the fleet profiles' [.jprof] files share, and the file operations
    around it. An envelope is newline-terminated header lines, then the
    payload:
    {v <magic>\n <version>\n <field>\n ... <payload md5 hex>\n <len>\n
       <payload> v}
    The fields identify the entry (a [.jart] kind and key, a [.jprof]
    image digest); the digest and length expose a torn, truncated or
    tampered file before any payload decoding runs. *)

(** [Stale]: the magic matches but the version line does not — a file
    from another build, which a cache treats as a miss. [Corrupt]:
    anything else malformed. *)
type error = Stale | Corrupt of string

(** @raise Invalid_argument when a header line contains a newline. *)
val encode : magic:string -> version:string -> string list -> string -> string

(** [decode ~magic ~version ~fields s] returns the [fields] field lines
    and the payload. Total: it never raises. *)
val decode :
  magic:string ->
  version:string ->
  fields:int ->
  string ->
  (string list * string, error) result

(** @raise Sys_error when the file cannot be read. *)
val read_file : string -> string

(** Create a directory and its missing parents; one that exists already
    is fine. *)
val mkdir_p : string -> unit

(** [publish path data] replaces [path] atomically: [data] goes to a
    fresh temp file beside it, which is closed (flushed, checked) and
    renamed over [path], so a reader sees the old file or the new one,
    never a torn write. On any failure the temp file is removed, [path]
    is left as it was and the exception ([Sys_error]) re-raised. *)
val publish : string -> string -> unit

(** [prune_dir dir ~exts] deletes the files under [dir] whose extension
    is in [exts], oldest mtime first (name breaks ties): everything
    older than [max_age] seconds, then the oldest survivors while they
    exceed [max_bytes]. [protect]ed paths are never deleted but count
    towards the budget. Returns the number of files deleted. *)
val prune_dir :
  ?max_age:int ->
  ?max_bytes:int ->
  ?protect:(string -> bool) ->
  exts:string list ->
  string ->
  int
