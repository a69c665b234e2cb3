(* A shared pool of worker domains.  One batch at a time: the caller
   publishes a job (an atomic index counter over [tasks]), workers and
   caller race to claim indices, and the caller blocks until every
   claimed index has finished.  Epoch + job are only ever read together
   under the mutex, so a worker either joins the current batch
   atomically with observing it, or waits for the next one — there is
   no window where a stale worker can join a completed batch. *)

type job = {
  j_tasks : int;
  j_width : int; (* worker slots allowed to participate, incl. caller *)
  j_next : int Atomic.t;
  j_f : worker:int -> int -> unit;
  j_cancelled : bool Atomic.t;
  mutable j_exn : exn option; (* first failure; guarded by the pool mutex *)
  mutable j_running : int; (* pool workers currently inside the job *)
}

type t = {
  m : Mutex.t;
  work_cv : Condition.t; (* workers: a new batch was published *)
  done_cv : Condition.t; (* caller: a worker left the batch *)
  mutable epoch : int;
  mutable job : job option;
  mutable nworkers : int;
  mutable domains : unit Domain.t list;
  mutable stopping : bool;
  mutable busy : bool; (* reentrancy guard: a batch is executing *)
}

let max_parallelism () = Domain.recommended_domain_count ()

(* Lifetime accounting, process-wide like the pool itself: batches
   submitted, tasks (morsels) executed, and tasks stolen — claimed by a
   pool worker rather than the submitting thread (worker 0).  Kept as
   plain atomics so the observability layer can expose them as gauges
   without the pool depending on it. *)
type stats = { dp_batches : int; dp_tasks : int; dp_stolen : int }

let stat_batches = Atomic.make 0
let stat_tasks = Atomic.make 0
let stat_stolen = Atomic.make 0

let stats () =
  {
    dp_batches = Atomic.get stat_batches;
    dp_tasks = Atomic.get stat_tasks;
    dp_stolen = Atomic.get stat_stolen;
  }

(* Claim indices until exhausted or cancelled.  Any exception cancels
   the batch; the first one is kept and re-raised by the caller. *)
let run_share job ~worker =
  let rec loop () =
    if not (Atomic.get job.j_cancelled) then begin
      let i = Atomic.fetch_and_add job.j_next 1 in
      if i < job.j_tasks then begin
        Atomic.incr stat_tasks;
        if worker <> 0 then Atomic.incr stat_stolen;
        (try job.j_f ~worker i
         with e ->
           Atomic.set job.j_cancelled true;
           raise e);
        loop ()
      end
    end
  in
  loop ()

let rec worker_loop t ~slot ~seen_epoch =
  Mutex.lock t.m;
  while (not t.stopping) && (t.epoch = seen_epoch || t.job = None) do
    Condition.wait t.work_cv t.m
  done;
  if t.stopping then Mutex.unlock t.m
  else begin
    let epoch = t.epoch in
    let job = Option.get t.job in
    if slot < job.j_width then begin
      job.j_running <- job.j_running + 1;
      Mutex.unlock t.m;
      let failure = try run_share job ~worker:slot; None with e -> Some e in
      Mutex.lock t.m;
      (match failure with
      | Some e when job.j_exn = None -> job.j_exn <- Some e
      | Some _ | None -> ());
      job.j_running <- job.j_running - 1;
      if job.j_running = 0 then Condition.broadcast t.done_cv;
      Mutex.unlock t.m
    end
    else Mutex.unlock t.m;
    worker_loop t ~slot ~seen_epoch:epoch
  end

let create () =
  {
    m = Mutex.create ();
    work_cv = Condition.create ();
    done_cv = Condition.create ();
    epoch = 0;
    job = None;
    nworkers = 0;
    domains = [];
    stopping = false;
    busy = false;
  }

(* Grow to [n] workers; only called from the single query thread, with
   no batch in flight. *)
let ensure_workers t n =
  Mutex.lock t.m;
  let epoch = t.epoch in
  while t.nworkers < n do
    t.nworkers <- t.nworkers + 1;
    let slot = t.nworkers in
    t.domains <-
      Domain.spawn (fun () -> worker_loop t ~slot ~seen_epoch:epoch)
      :: t.domains
  done;
  Mutex.unlock t.m

let shutdown t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.m;
  List.iter Domain.join t.domains;
  t.domains <- []

let parallelism t = t.nworkers + 1

let shared : t option ref = ref None

let get ~parallelism:want =
  let t =
    match !shared with
    | Some t -> t
    | None ->
        let t = create () in
        shared := Some t;
        at_exit (fun () -> match !shared with Some p -> shutdown p | None -> ());
        t
  in
  (* never exceed the machine's recommendation by default, but honor an
     explicit larger request (multi-domain tests on small machines) *)
  let workers = max 0 (want - 1) in
  if workers > t.nworkers then ensure_workers t workers;
  t

let parallel_for t ?width ~tasks f =
  if tasks <= 0 then ()
  else begin
    let width =
      match width with
      | Some w -> max 1 (min w (parallelism t))
      | None -> parallelism t
    in
    (* Under a sampled span context, each morsel is recorded as a
       "morsel" span: worker slot, whether a pool worker stole it from
       the submitting thread, and how long it sat queued between batch
       publication and being claimed.  Workers inherit the submitting
       domain's context for the duration of their share, so morsel
       spans land in the same statement record.  Unsampled batches run
       [f] untouched — no clock reads, no wrapper. *)
    let module Span = Ifdb_obs.Span in
    let f =
      match Span.current () with
      | None -> f
      | Some ctx ->
          let t_pub = Ifdb_obs.Clock.now_ns () in
          fun ~worker i ->
            let run () =
              let t0 = Ifdb_obs.Clock.now_ns () in
              Fun.protect
                ~finally:(fun () ->
                  let t1 = Ifdb_obs.Clock.now_ns () in
                  Span.emit ctx "morsel"
                    ~args:
                      [
                        ("worker", string_of_int worker);
                        ("stolen", if worker = 0 then "false" else "true");
                        ("queue_ns", string_of_int (max 0 (t0 - t_pub)));
                      ]
                    ~t0 ~t1)
                (fun () -> f ~worker i)
            in
            (* the submitting domain already carries the context (and
               its open-span stack, so morsels nest under the phase
               that launched the batch); worker domains borrow it *)
            (match Span.current () with
            | Some c when c == ctx -> run ()
            | _ -> Span.with_current (Some ctx) run)
    in
    if width = 1 || tasks = 1 || t.nworkers = 0 || t.busy then begin
      (* inline: no workers, a single morsel, or a nested call *)
      Atomic.incr stat_batches;
      ignore (Atomic.fetch_and_add stat_tasks tasks);
      for i = 0 to tasks - 1 do
        f ~worker:0 i
      done
    end
    else begin
      Atomic.incr stat_batches;
      let job =
        {
          j_tasks = tasks;
          j_width = width;
          j_next = Atomic.make 0;
          j_f = f;
          j_cancelled = Atomic.make false;
          j_exn = None;
          j_running = 0;
        }
      in
      Mutex.lock t.m;
      t.busy <- true;
      t.epoch <- t.epoch + 1;
      t.job <- Some job;
      Condition.broadcast t.work_cv;
      Mutex.unlock t.m;
      let own_failure = try run_share job ~worker:0; None with e -> Some e in
      Mutex.lock t.m;
      while job.j_running > 0 do
        Condition.wait t.done_cv t.m
      done;
      t.job <- None;
      t.busy <- false;
      let worker_failure = job.j_exn in
      Mutex.unlock t.m;
      match own_failure with
      | Some e -> raise e
      | None -> ( match worker_failure with Some e -> raise e | None -> ())
    end
  end
