(** Crash-safe whole-file writes: temp file in the target directory,
    write, [fsync], [rename] over the destination, then [fsync] the
    directory.  A crash at any point leaves either the old file or the
    new one — never a half-written mix.  POSIX rename atomicity is the
    only primitive relied on.

    Used for [BENCH_pvr.json] and engine report files,
    so a crash during output can never leave a torn artifact behind. *)

val write : ?fsync:bool -> string -> string -> unit
(** [write path contents] atomically replaces [path] with [contents].
    [fsync] (default [true]) forces the data and the directory entry to
    stable storage before returning; [false] keeps the atomicity (rename)
    but skips the durability barrier — appropriate for tests and
    benchmark artifacts.  Raises [Sys_error]/[Unix.Unix_error] on I/O
    failure (the temp file is removed on the error path). *)
