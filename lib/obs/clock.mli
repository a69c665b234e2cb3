(** The engine's one clock.  Every timing — operator traces, spans,
    lock and fsync waits, slow-query and latency measurements — reads
    it, so figures from different recorders agree. *)

val now_ns : unit -> int
(** Nanoseconds on the system's monotonic clock ([CLOCK_MONOTONIC]):
    an arbitrary fixed origin, never stepped by NTP or an operator, so
    the difference of two readings is an elapsed time and never
    negative.  It is not a time of day.  Does not allocate. *)
