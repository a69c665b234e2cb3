module Wal = Ifdb_storage.Wal
module Span = Ifdb_obs.Span
module Clock = Ifdb_obs.Clock

type stats = {
  gc_submitted : int;
  gc_batches : int;
  gc_max_batch : int;
}

type t = {
  wal : Wal.t;
  batch : int;
  synchronous : bool;
  mu : Mutex.t;
  cond : Condition.t;
  mutable seq : int;          (* commit records appended so far *)
  mutable flushed : int;      (* highest seq covered by an fsync *)
  mutable flushing : bool;    (* a leader is in its gather window *)
  mutable submitted : int;
  mutable batches : int;
  mutable max_batch : int;
  mutable on_wait : float -> unit;
      (* group-commit wait observer (seconds spent inside [submit]);
         called only under a sampled span context, so the unsampled
         path never reads a clock *)
}

let create ?(batch = 1) ?(synchronous = false) wal =
  if batch < 1 then invalid_arg "Group_commit.create: batch must be >= 1";
  {
    wal;
    batch;
    synchronous;
    mu = Mutex.create ();
    cond = Condition.create ();
    seq = 0;
    flushed = 0;
    flushing = false;
    submitted = 0;
    batches = 0;
    max_batch = 0;
    on_wait = ignore;
  }

let batch t = t.batch
let set_wait_observer t f = t.on_wait <- f

(* Must hold [t.mu].  One fsync covers every commit record appended
   since the previous flush. *)
let flush_locked t =
  if t.seq > t.flushed then begin
    let covered = t.seq - t.flushed in
    Wal.fsync t.wal;
    t.flushed <- t.seq;
    t.batches <- t.batches + 1;
    if covered > t.max_batch then t.max_batch <- covered;
    Condition.broadcast t.cond
  end

let submit t ~xid =
  (* wait-state attribution: under a sampled span context the whole
     submit — mutex, WAL append, and whichever wait the protocol
     dictates — becomes one "gc.wait" span whose [role] argument says
     why time was spent: [batch] flushed at the coalescing threshold,
     [leader] gathered and fsynced, [follower] blocked on a leader's
     fsync, [queued] returned immediately (asynchronous mode).
     Unsampled statements take the original path: no clock reads. *)
  let sctx = Span.current () in
  let t_enter = match sctx with Some _ -> Clock.now_ns () | None -> 0 in
  let role = ref "queued" in
  Mutex.lock t.mu;
  Wal.append t.wal (Wal.Commit xid);
  t.seq <- t.seq + 1;
  t.submitted <- t.submitted + 1;
  let my_seq = t.seq in
  if t.seq - t.flushed >= t.batch then begin
    (* the coalescing degree is reached: whoever got here flushes,
       covering every queued commit (deterministic on one thread) *)
    role := "batch";
    flush_locked t
  end
  else if t.synchronous then begin
    if t.flushing then begin
      (* follower: a leader is gathering; it will cover our record *)
      role := "follower";
      while t.flushed < my_seq do
        Condition.wait t.cond t.mu
      done
    end
    else begin
      (* leader: open a short gather window so concurrent committers
         can append their records behind ours, then issue one fsync
         for the whole batch *)
      role := "leader";
      t.flushing <- true;
      Mutex.unlock t.mu;
      for _ = 1 to 50 do
        Domain.cpu_relax ()
      done;
      Mutex.lock t.mu;
      flush_locked t;
      t.flushing <- false
    end
  end;
  (* asynchronous mode below the batch threshold: return immediately;
     durability arrives with the batch's flush (or an explicit
     {!flush}) — PostgreSQL's commit_delay/asynchronous-commit shape *)
  Mutex.unlock t.mu;
  match sctx with
  | None -> ()
  | Some ctx ->
      let t_exit = Clock.now_ns () in
      Span.emit ctx "gc.wait" ~args:[ ("role", !role) ] ~t0:t_enter ~t1:t_exit;
      t.on_wait (float_of_int (t_exit - t_enter) /. 1e9)

let flush t = Mutex.protect t.mu (fun () -> flush_locked t)

let pending t = Mutex.protect t.mu (fun () -> t.seq - t.flushed)

let stats t =
  Mutex.protect t.mu (fun () ->
      {
        gc_submitted = t.submitted;
        gc_batches = t.batches;
        gc_max_batch = t.max_batch;
      })

let reset_stats t =
  Mutex.protect t.mu (fun () ->
      t.submitted <- 0;
      t.batches <- 0;
      t.max_batch <- 0)
