(** The build stamp ([gen/gen_build_id.ml]): an md5 of the library
    sources, identical in every executable built from one tree. *)
val id : string
