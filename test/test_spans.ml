(* Statement-lifecycle span tracing: well-formedness of recorded span
   trees (balanced, nested, sorted, conserved across domains), the
   zero-cost sampled-off contract, the slow-query-log link, redaction
   of the Chrome export (no statement text, literals, bound values or
   tag names), commit-path wait attribution, and histogram quantiles.

   [IFDB_TEST_PARALLELISM] overrides the domain count like
   test_parallel.ml: the conservation properties are only interesting
   when worker domains genuinely race the CAS scratch list. *)

module Db = Ifdb_core.Database
module Span = Ifdb_obs.Span
module Metrics = Ifdb_obs.Metrics
module Trace = Ifdb_obs.Trace
module Value = Ifdb_rel.Value

let par_width =
  match Sys.getenv_opt "IFDB_TEST_PARALLELISM" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let fixture ?(trace_sample = 1) ?slow_query_ms ?(parallelism = 1) () =
  let db =
    Db.create ~trace_sample ?slow_query_ms ~parallelism ~morsel_size:16 ()
  in
  let admin = Db.connect_admin db in
  let p = Db.create_principal admin ~name:"spanner" in
  (db, Db.connect db ~principal:p)

(* ------------------------------------------------------------------ *)
(* Well-formedness: what every record in the ring must satisfy         *)
(* ------------------------------------------------------------------ *)

let check_record (r : Span.record) =
  let evs = r.Span.r_events in
  (match evs with
  | root :: _ ->
      if root.Span.ev_id <> 0 || root.Span.ev_parent <> -1 then
        Alcotest.fail "first event is not the root (id 0, parent -1)"
  | [] -> Alcotest.fail "empty record");
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Span.event) ->
      if Hashtbl.mem tbl e.Span.ev_id then
        Alcotest.failf "duplicate event id %d" e.Span.ev_id;
      Hashtbl.add tbl e.Span.ev_id e)
    evs;
  ignore
    (List.fold_left
       (fun prev (e : Span.event) ->
         if e.Span.ev_t1 < e.Span.ev_t0 then
           Alcotest.failf "span %s not balanced: t1 < t0" e.Span.ev_name;
         if e.Span.ev_t0 < prev then
           Alcotest.fail "events not sorted by start time";
         e.Span.ev_t0)
       min_int evs);
  List.iter
    (fun (e : Span.event) ->
      if e.Span.ev_parent >= 0 then
        match Hashtbl.find_opt tbl e.Span.ev_parent with
        | None -> Alcotest.failf "span %s has a dangling parent" e.Span.ev_name
        | Some p ->
            if e.Span.ev_t0 < p.Span.ev_t0 || e.Span.ev_t1 > p.Span.ev_t1 then
              Alcotest.failf "span %s not nested inside %s" e.Span.ev_name
                p.Span.ev_name)
    evs

let check_ring db =
  let sp = Db.spans db in
  List.iter check_record (Span.recent sp (Span.capacity sp))

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)
(* ------------------------------------------------------------------ *)

let test_sampled_off_noop () =
  let db, s = fixture ~trace_sample:0 () in
  ignore (Db.exec s "CREATE TABLE t (k INT PRIMARY KEY, v INT)");
  for i = 1 to 10 do
    ignore (Db.exec s (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i i))
  done;
  ignore (Db.exec s "SELECT * FROM t");
  let sp = Db.spans db in
  Alcotest.(check bool) "recorder disabled" false (Span.enabled sp);
  Alcotest.(check int) "no records" 0 (Span.count sp);
  Alcotest.(check int) "ring empty" 0 (List.length (Span.recent sp 10));
  Alcotest.(check bool) "no ambient context leaked" true (Span.current () = None);
  (* the sampled-view observers never fired: no wait histograms *)
  let snap = Db.metrics_snapshot db in
  let v name = Option.value (List.assoc_opt name snap) ~default:0.0 in
  Alcotest.(check (float 0.0)) "fsync histogram untouched" 0.0
    (v "ifdb_fsync_stall_seconds_count");
  Alcotest.(check (float 0.0)) "gc-wait histogram untouched" 0.0
    (v "ifdb_group_commit_wait_seconds_count")

let test_sampling_cadence () =
  let db, s = fixture ~trace_sample:2 () in
  ignore (Db.exec s "CREATE TABLE t (k INT)");
  for i = 1 to 9 do
    ignore (Db.exec s (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  (* 10 statements, every 2nd sampled starting with the first *)
  Alcotest.(check int) "half the statements sampled" 5
    (Span.count (Db.spans db));
  check_ring db;
  Alcotest.(check bool) "no ambient context leaked" true (Span.current () = None)

(* ------------------------------------------------------------------ *)
(* Lifecycle phases and commit-path wait attribution                   *)
(* ------------------------------------------------------------------ *)

let find_record db pred =
  let sp = Db.spans db in
  match List.find_opt pred (Span.recent sp (Span.capacity sp)) with
  | Some r -> r
  | None -> Alcotest.fail "expected record not in the ring"

let has_phase r name =
  List.exists (fun (n, _, _) -> n = name) (Span.summary r)

let test_lifecycle_phases () =
  let db, s = fixture () in
  ignore (Db.exec s "CREATE TABLE t (k INT PRIMARY KEY, v INT)");
  ignore (Db.exec s "INSERT INTO t VALUES (1, 10)");
  ignore (Db.exec s "SELECT v FROM t WHERE k = 1");
  check_ring db;
  let select =
    find_record db (fun r ->
        match r.Span.r_events with
        | root :: _ -> List.assoc_opt "stmt" root.Span.ev_args = Some "select"
        | [] -> false)
  in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " phase present") true
        (has_phase select phase))
    [ "parse"; "analyze"; "plan"; "execute"; "commit" ];
  (* the write's commit span contains the wait children, each inside
     the commit window (check_record already verified nesting) *)
  let insert =
    find_record db (fun r ->
        match r.Span.r_events with
        | root :: _ -> List.assoc_opt "stmt" root.Span.ev_args = Some "insert"
        | [] -> false)
  in
  let commit =
    match
      List.find_opt (fun e -> e.Span.ev_name = "commit") insert.Span.r_events
    with
    | Some e -> e
    | None -> Alcotest.fail "no commit span in the insert record"
  in
  List.iter
    (fun child ->
      match
        List.find_opt (fun e -> e.Span.ev_name = child) insert.Span.r_events
      with
      | None -> Alcotest.failf "no %s span in the insert record" child
      | Some e ->
          Alcotest.(check int) (child ^ " parented to commit")
            commit.Span.ev_id e.Span.ev_parent;
          Alcotest.(check bool) (child ^ " no longer than commit") true
            (e.Span.ev_t1 - e.Span.ev_t0
            <= commit.Span.ev_t1 - commit.Span.ev_t0))
    [ "lock.wait"; "lock.hold"; "gc.wait"; "wal.fsync" ];
  (* sampled statements fed the wait histograms *)
  let snap = Db.metrics_snapshot db in
  let v name = Option.value (List.assoc_opt name snap) ~default:0.0 in
  Alcotest.(check bool) "fsync histogram fed" true
    (v "ifdb_fsync_stall_seconds_count" > 0.0);
  (* the wait itself can round to 0ns on an uncontended mutex at
     clock resolution — only presence is deterministic *)
  Alcotest.(check bool) "lock-wait counter registered" true
    (List.mem_assoc "ifdb_lock_wait_ns_total" snap)

let test_plan_cache_note () =
  let db, s = fixture () in
  ignore (Db.exec s "CREATE TABLE t (k INT PRIMARY KEY, v INT)");
  ignore (Db.exec s "INSERT INTO t VALUES (1, 10)");
  ignore (Db.exec s "SELECT v FROM t WHERE k = 1");
  ignore (Db.exec s "SELECT v FROM t WHERE k = 1");
  let sp = Db.spans db in
  let verdict r =
    List.find_map
      (fun (e : Span.event) ->
        if e.Span.ev_name = "plan" then List.assoc_opt "plan_cache" e.Span.ev_args
        else None)
      r.Span.r_events
  in
  match Span.recent sp 2 with
  | [ second; first ] ->
      Alcotest.(check (option string)) "first select misses" (Some "miss")
        (verdict first);
      Alcotest.(check (option string)) "second select hits" (Some "hit")
        (verdict second)
  | _ -> Alcotest.fail "expected two records"

(* ------------------------------------------------------------------ *)
(* Slow-query-log link                                                 *)
(* ------------------------------------------------------------------ *)

let test_slow_log_link () =
  let db, s = fixture ~slow_query_ms:0.0 () in
  ignore (Db.exec s "CREATE TABLE t (k INT)");
  ignore (Db.exec s "INSERT INTO t VALUES (1)");
  let entries = Db.slow_queries db in
  Alcotest.(check bool) "slow log populated" true (entries <> []);
  List.iter
    (fun (e : Trace.slow_entry) ->
      Alcotest.(check bool) "entry links a trace" true (e.Trace.sq_trace >= 0);
      match Span.find (Db.spans db) e.Trace.sq_trace with
      | None -> Alcotest.fail "linked trace not in the ring"
      | Some r ->
          Alcotest.(check bool) "linked record has phases" true
            (Span.summary r <> []))
    entries

(* ------------------------------------------------------------------ *)
(* Export redaction                                                    *)
(* ------------------------------------------------------------------ *)

let test_export_redaction () =
  let db, s = fixture ~slow_query_ms:0.0 () in
  let tag = Db.create_tag s ~name:"supersecretag" () in
  Db.add_secrecy s tag;
  ignore (Db.exec s "CREATE TABLE t (k INT PRIMARY KEY, v TEXT)");
  ignore (Db.exec s "INSERT INTO t VALUES (1, 'sekritvalue')");
  ignore (Db.exec s "SELECT * FROM t WHERE _label = {supersecretag}");
  ignore (Db.exec s "PREPARE pq AS SELECT v FROM t WHERE k = $1");
  ignore (Db.execute_prepared s "pq" [ Value.Text "boundsekrit" ]);
  let sp = Db.spans db in
  let json = Span.to_chrome_json (Span.recent sp (Span.capacity sp)) in
  List.iter
    (fun secret ->
      Alcotest.(check bool)
        (Printf.sprintf "%S absent from export" secret)
        false (contains json secret))
    [ "supersecretag"; "sekritvalue"; "boundsekrit" ];
  (* bound parameters render as placeholders, and the prepared name
     (part of the span contract) is present *)
  Alcotest.(check bool) "placeholder rendered" true (contains json "$1");
  Alcotest.(check bool) "prepared name present" true (contains json "pq");
  (* the slow-query log keeps the raw SQL (its own, pre-existing
     policy) — only the span export is label-clean; the EXECUTE entry
     must still hide the bound value *)
  List.iter
    (fun (e : Trace.slow_entry) ->
      Alcotest.(check bool) "bound value never in slow log" false
        (contains e.Trace.sq_sql "boundsekrit"))
    (Db.slow_queries db)

(* ------------------------------------------------------------------ *)
(* Domains: morsel spans and event conservation                        *)
(* ------------------------------------------------------------------ *)

let test_morsel_spans () =
  (* the pool only exists at parallelism > 1; the morsel spans must
     appear even when IFDB_TEST_PARALLELISM=1 pins everything else *)
  let db, s = fixture ~parallelism:(max 2 par_width) () in
  ignore (Db.exec s "CREATE TABLE big (k INT, v INT)");
  ignore (Db.exec s "BEGIN");
  for i = 1 to 64 do
    ignore
      (Db.exec s (Printf.sprintf "INSERT INTO big VALUES (%d, %d)" (i mod 7) i))
  done;
  ignore (Db.exec s "COMMIT");
  ignore (Db.exec s "SELECT k, COUNT(*), SUM(v) FROM big GROUP BY k");
  check_ring db;
  let r =
    find_record db (fun r ->
        List.exists (fun e -> e.Span.ev_name = "morsel") r.Span.r_events)
  in
  List.iter
    (fun (e : Span.event) ->
      if e.Span.ev_name = "morsel" then begin
        Alcotest.(check bool) "worker arg" true
          (List.mem_assoc "worker" e.Span.ev_args);
        Alcotest.(check bool) "stolen arg" true
          (List.mem_assoc "stolen" e.Span.ev_args);
        Alcotest.(check bool) "queue_ns arg" true
          (List.mem_assoc "queue_ns" e.Span.ev_args)
      end)
    r.Span.r_events

let test_event_conservation () =
  (* worker domains racing the context's CAS scratch list must not
     lose spans: 1 root + domains * spans_each, exactly *)
  let t = Span.create ~sample_every:1 () in
  Alcotest.(check bool) "sampled" true (Span.sample t);
  let ctx = Span.start t "statement" in
  let spans_each = 50 in
  let domains =
    List.init par_width (fun d ->
        Domain.spawn (fun () ->
            Span.with_current (Some ctx) (fun () ->
                for i = 1 to spans_each do
                  Span.timed "work"
                    ~args:[ ("d", string_of_int d); ("i", string_of_int i) ]
                    (fun () -> ())
                done)))
  in
  List.iter Domain.join domains;
  Span.finish t ctx;
  match Span.recent t 1 with
  | [ r ] ->
      Alcotest.(check int) "every span survived the merge"
        (1 + (par_width * spans_each))
        (List.length r.Span.r_events);
      check_record r
  | _ -> Alcotest.fail "expected exactly one record"

(* ------------------------------------------------------------------ *)
(* Property: arbitrary workloads produce well-formed rings             *)
(* ------------------------------------------------------------------ *)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 5 40)
      (oneof
         [
           map (fun i -> `Insert i) (int_range 0 99);
           map (fun i -> `Select i) (int_range 0 99);
           map (fun i -> `Update i) (int_range 0 99);
           return `Txn;
         ]))

let print_ops ops = Printf.sprintf "%d ops" (List.length ops)

let run_op s = function
  | `Insert i ->
      ignore (Db.exec s (Printf.sprintf "INSERT INTO p VALUES (%d, %d)" i i));
      1
  | `Select i ->
      ignore (Db.exec s (Printf.sprintf "SELECT * FROM p WHERE k < %d" i));
      1
  | `Update i ->
      ignore
        (Db.exec s (Printf.sprintf "UPDATE p SET v = v + 1 WHERE k = %d" i));
      1
  | `Txn ->
      ignore (Db.exec s "BEGIN");
      ignore (Db.exec s "INSERT INTO p VALUES (-1, 0)");
      ignore (Db.exec s "DELETE FROM p WHERE k = -1");
      ignore (Db.exec s "COMMIT");
      4

let wellformed_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15
       ~name:"any workload yields well-formed, conserved span records"
       (QCheck.make ~print:print_ops gen_ops)
       (fun ops ->
         let db, s = fixture ~parallelism:par_width () in
         ignore (Db.exec s "CREATE TABLE p (k INT, v INT)");
         let executed =
           List.fold_left (fun acc op -> acc + run_op s op) 1 ops
         in
         (* sample_every = 1: every statement must have produced
            exactly one record (statement-level conservation) *)
         Alcotest.(check int) "one record per statement" executed
           (Span.count (Db.spans db));
         check_ring db;
         true))

(* ------------------------------------------------------------------ *)
(* Histogram quantiles                                                 *)
(* ------------------------------------------------------------------ *)

let test_quantiles () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[| 1.0; 2.0; 4.0 |] "ifdb_q_seconds" in
  Alcotest.(check bool) "empty histogram has no quantile" true
    (Float.is_nan (Metrics.quantile h 0.5));
  for _ = 1 to 4 do
    Metrics.observe h 1.5
  done;
  (* all 4 observations in (1,2]: PromQL linear interpolation *)
  Alcotest.(check (float 1e-9)) "p50 interpolates" 1.5 (Metrics.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p95 interpolates" 1.95
    (Metrics.quantile h 0.95);
  let reg2 = Metrics.create () in
  let h2 =
    Metrics.histogram reg2 ~buckets:[| 1.0; 2.0; 4.0 |] "ifdb_q2_seconds"
  in
  Metrics.observe h2 100.0;
  Alcotest.(check (float 1e-9)) "overflow clamps to largest finite bound" 4.0
    (Metrics.quantile h2 0.5);
  (* quantiles ride every export surface *)
  let snap = Metrics.snapshot reg in
  Alcotest.(check (option (float 1e-9))) "snapshot carries p50" (Some 1.5)
    (List.assoc_opt "ifdb_q_seconds_p50" snap);
  let text = Metrics.to_prometheus reg in
  Alcotest.(check bool) "prometheus gauge sample" true
    (contains text "# TYPE ifdb_q_seconds_p50 gauge")

let suites =
  [
    ( "span tracing",
      [
        Alcotest.test_case "sampled-off is a no-op" `Quick test_sampled_off_noop;
        Alcotest.test_case "sampling cadence" `Quick test_sampling_cadence;
        Alcotest.test_case "lifecycle phases + commit children" `Quick
          test_lifecycle_phases;
        Alcotest.test_case "plan-cache verdict stamped" `Quick
          test_plan_cache_note;
        Alcotest.test_case "slow-log link" `Quick test_slow_log_link;
        Alcotest.test_case "export redaction" `Quick test_export_redaction;
        Alcotest.test_case "morsel spans" `Quick test_morsel_spans;
        Alcotest.test_case "event conservation across domains" `Quick
          test_event_conservation;
        wellformed_prop;
        Alcotest.test_case "histogram quantiles" `Quick test_quantiles;
      ] );
  ]
