(** Transaction-lifecycle span tracing.

    A {e span} is one timed phase of a statement's life — parse,
    analyze, plan, execute, lock wait, group-commit wait, WAL fsync,
    morsel, IVM delta — with begin/end timestamps and a parent link.
    One sampled statement produces one {!record}: its tree of closed
    spans, merged into a fixed-capacity per-database ring.  The ring
    is what [\spans] prints, what the slow-query log links to, and
    what {!to_chrome_json} exports for [chrome://tracing]/Perfetto.

    Design constraints, in order:

    - {b zero clock reads when unsampled}: the per-statement sampling
      decision ({!sample}) is one atomic fetch-and-add and a modulo;
      when it says no, no context is installed and every downstream
      instrumentation point reduces to one domain-local load and a
      [None] match.  [?sample_every:0] (the default) never samples.
    - {b domain-safe}: each domain keeps its own open-span stack in
      domain-local storage (so begin/end nesting never races), and
      closed spans are pushed onto the statement context's scratch
      list with a lock-free CAS — worker domains merge into the same
      statement record without a lock.  The ring itself takes a mutex
      only once per sampled statement, at {!finish}.
    - {b label-clean exports}: spans carry only fixed phase names,
      statement head keywords, prepared-statement names and counts.
      Bound parameters are rendered as [$n] placeholders and tag
      names never enter a span at all (see DESIGN.md §6.10), so a
      Chrome export can be shared without declassification.

    The clock is {!Clock.now_ns}, the monotonic clock {!Trace} reads
    too, so operator traces and spans agree.  A span whose recorded
    start would precede its statement root (e.g. a lock acquired by an
    earlier statement of an explicit transaction) is clipped to the
    statement window, keeping every record well-nested by
    construction. *)

type t
(** A recorder: sampling state plus the ring of finished records.
    One per [Database.t]. *)

type ctx
(** One sampled statement's collector.  Created by {!start}, usually
    installed as the calling domain's ambient context ({!set_current})
    so lower layers can record spans without threading a handle. *)

type span
(** An open span: returned by {!begin_span}, closed by {!end_span}. *)

(** A closed span, as stored in a finished record. *)
type event = {
  ev_id : int;  (** unique within the record; the root span is 0 *)
  ev_parent : int;  (** parent event id; [-1] for the root *)
  ev_name : string;  (** fixed phase name, e.g. ["plan"], ["gc.wait"] *)
  ev_dom : int;  (** id of the domain that recorded it *)
  ev_t0 : int;  (** begin, ns *)
  ev_t1 : int;  (** end, ns; [>= ev_t0] *)
  ev_args : (string * string) list;
}

type record = {
  r_id : int;  (** trace id, monotone per recorder; linked from the
                   slow-query log *)
  r_events : event list;  (** sorted by start time; root first *)
}

val create : ?capacity:int -> ?sample_every:int -> unit -> t
(** A recorder holding the last [capacity] (default 256) sampled
    statements.  [sample_every = n] samples every [n]th statement
    ([1] = all, [0] = never; default [0]).  Negative values behave
    like [0]. *)

val enabled : t -> bool
(** [sample_every > 0]. *)

val sample_every : t -> int

val sample : t -> bool
(** Consume one statement slot: true when this statement should be
    traced.  One atomic fetch-and-add; no clock read. *)

val peek : t -> bool
(** Would the next {!sample} say yes?  Used to decide whether to take
    pre-context timestamps (e.g. around parsing, before the statement
    context exists) without consuming the slot.  Racy across sessions
    by design — a wrong guess costs or saves two clock reads, never
    correctness. *)

(** {1 Statement contexts} *)

val start : t -> ?t0:int -> ?args:(string * string) list -> string -> ctx
(** Open a statement root span named after the argument.  [t0]
    backdates the root (e.g. to before parsing); default now. *)

val finish : t -> ctx -> unit
(** Close the root (and any span left open on this domain's stack),
    sort the events and push the finished record into the ring. *)

val trace_id : ctx -> int

val current : unit -> ctx option
(** This domain's ambient context, if any. *)

val set_current : ctx option -> unit
(** Install [ctx] as this domain's ambient context (clearing the open
    stack).  The statement path sets it after a positive {!sample} and
    must clear it after {!finish}. *)

val with_current : ctx option -> (unit -> 'a) -> 'a
(** Run [f] with the ambient context temporarily set — how worker
    domains inherit the submitting domain's context for the duration
    of a morsel batch. *)

(** {1 Recording} *)

val begin_span : ctx -> ?args:(string * string) list -> string -> span
(** Open a child of this domain's innermost open span (the root when
    the stack is empty) and push it on the stack. *)

val end_span : span -> unit
(** Close the span and move it to the context's scratch list. *)

val add_arg : span -> string -> string -> unit

val timed : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [timed name f]: if an ambient context is installed, run [f] inside
    a span (exception-safe); otherwise run [f] with no clock reads. *)

val note : string -> string -> unit
(** Attach an argument to this domain's innermost open span (the
    ambient root when nothing is open); no-op without a context.  How
    deep layers stamp verdicts — e.g. the plan-cache hit/miss — onto
    the enclosing phase span. *)

val emit :
  ctx -> ?args:(string * string) list -> string -> t0:int -> t1:int -> unit
(** Record an already-timed interval as a closed span (parented like
    {!begin_span}).  [t0] is clipped to the statement window. *)

(** {1 Reading the ring} *)

val count : t -> int
(** Records ever finished (not bounded by capacity). *)

val capacity : t -> int

val recent : t -> int -> record list
(** The last [n] records, newest first. *)

val find : t -> int -> record option
(** Look up a record by trace id, if still in the ring. *)

val duration_ns : record -> int
(** Root span duration. *)

val summary : record -> (string * int * int) list
(** Aggregate [(phase, spans, total_ns)] per phase name in first-seen
    order, root excluded — the per-statement breakdown [\slow] and
    [\spans] print. *)

val render : record -> string list
(** Human-readable span tree, indented by parent depth, with
    durations and args. *)

val to_chrome_json : record list -> string
(** Chrome trace-event JSON (the [{"traceEvents": [...]}] envelope):
    one complete ("ph":"X") event per span with microsecond
    timestamps relative to the earliest exported span, [pid] = trace
    id, [tid] = recording domain, plus process-name metadata events.
    Loadable in [chrome://tracing] and Perfetto. *)
