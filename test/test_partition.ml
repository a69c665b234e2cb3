(* Label-sharded storage: per-label heap page runs, per-label index
   segments and partition-granularity locks, with every read confined
   by one partition filter.  A random labeled DML + query trace is
   replayed against the engine and against [Qbl_ref], a reference model
   of Query by Label with none of that machinery, and every observation
   is compared: result values, result labels, affected counts, error
   outcomes, the audit stream and the final visible state.  CI runs the
   suite at parallelism 1 and at a multi-domain setting
   ([IFDB_TEST_PARALLELISM]), so the merged morsel path is checked
   against the reference too. *)

module Db = Ifdb_core.Database
module Label = Ifdb_difc.Label
module Authority = Ifdb_difc.Authority
module Value = Ifdb_rel.Value
module Tuple = Ifdb_rel.Tuple
module Audit = Ifdb_obs.Audit
module Heap = Ifdb_storage.Heap
module Ref = Qbl_ref

let par_width =
  match Sys.getenv_opt "IFDB_TEST_PARALLELISM" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* ------------------------------------------------------------------ *)
(* Trace generation                                                    *)
(* ------------------------------------------------------------------ *)

(* Labels are masks over two tags, so traces exercise the empty
   partition, both singletons and the union — enough to make pruning,
   polyinstantiation and Write-Rule rejections all reachable. *)
let gen_op =
  QCheck.Gen.(
    let id = int_bound 7 and v = int_bound 9 and mask = int_bound 3 in
    frequency
      [
        (4, map3 (fun i x m -> Ref.Insert (i, x, m)) id v mask);
        (2, map3 (fun i x m -> Ref.Update (i, x, m)) id v mask);
        (2, map2 (fun i m -> Ref.Delete (i, m)) id mask);
        (3, map (fun m -> Ref.Query m) mask);
      ])

(* A trace appends at most one version per statement, and a table
   runs morsel-parallel only from two morsels (32 slots at
   [morsel_size:16]) up, so the parallel property needs traces long
   enough to get there. *)
let gen_trace (lo, hi) = QCheck.Gen.(list_size (int_range lo hi) gen_op)

let pp_trace ops = String.concat "; " (List.map Ref.pp_op ops)

(* ------------------------------------------------------------------ *)
(* Engine replay                                                       *)
(* ------------------------------------------------------------------ *)

let replay ~parallelism ops : Ref.observation =
  let db = Db.create ~parallelism ~morsel_size:16 () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  let ta = Db.create_tag os ~name:"ta" () in
  let tb = Db.create_tag os ~name:"tb" () in
  ignore (Db.exec admin "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  let row_key t =
    ( List.map Value.to_string (Array.to_list (Tuple.values t)),
      Authority.label_to_string (Db.authority db) (Tuple.label t) )
  in
  let session mask =
    let s = Db.connect db ~principal:owner in
    if mask land 1 <> 0 then Db.add_secrecy s ta;
    if mask land 2 <> 0 then Db.add_secrecy s tb;
    s
  in
  let run mask sql =
    match Db.exec (session mask) sql with
    | Db.Rows { tuples; _ } -> Ref.Rows (List.map row_key tuples)
    | Db.Affected n -> Ref.Count n
    | Db.Done _ -> Ref.Count 0
    | exception e -> Ref.Error (Printexc.to_string e)
  in
  let outcomes =
    List.map
      (fun op ->
        match op with
        | Ref.Insert (id, v, m) ->
            run m (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" id v)
        | Ref.Update (id, v, m) ->
            run m (Printf.sprintf "UPDATE t SET v = %d WHERE id = %d" v id)
        | Ref.Delete (id, m) ->
            run m (Printf.sprintf "DELETE FROM t WHERE id = %d" id)
        | Ref.Query m -> run m "SELECT id, v FROM t ORDER BY id, v")
      ops
  in
  let final =
    match run 3 "SELECT id, v FROM t ORDER BY id, v" with
    | Ref.Rows rows -> rows
    | Ref.Count _ | Ref.Error _ -> assert false
  in
  let audit =
    List.map
      (fun ev -> (ev.Audit.ev_kind, ev.Audit.ev_principal, ev.Audit.ev_tags))
      (Audit.events (Db.audit_log db))
  in
  (* every commit and abort reclaimed what it could: heap slots,
     partition counts and index segments must still agree *)
  (match Db.check_invariants db with
  | Ok () -> ()
  | Error e ->
      QCheck.Test.fail_reportf "storage invariants broken (%s) on@ [%s]" e
        (pp_trace ops));
  (outcomes, final, audit)

let check_reference ~parallelism ops =
  if replay ~parallelism ops <> Ref.run ops then
    QCheck.Test.fail_reportf "engine /= reference on@ [%s]" (pp_trace ops);
  true

let qcheck_reference ~count ~parallelism ~len name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name
       (QCheck.make ~print:pp_trace (gen_trace len))
       (fun ops -> check_reference ~parallelism ops))

(* ------------------------------------------------------------------ *)
(* Pruning is observable                                               *)
(* ------------------------------------------------------------------ *)

(* A low reader over a mixed-label table must skip the high partitions
   without touching their tuples: the pruned-partition counter moves,
   the directory reports every partition, and results stay correct. *)
let test_pruning_observable () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  let tag = Db.create_tag os ~name:"secret" () in
  ignore (Db.exec admin "CREATE TABLE r (id INT PRIMARY KEY, v INT)");
  ignore (Db.exec admin "INSERT INTO r VALUES (1, 10)");
  ignore (Db.exec admin "INSERT INTO r VALUES (2, 20)");
  let hs = Db.connect db ~principal:owner in
  Db.add_secrecy hs tag;
  ignore (Db.exec hs "INSERT INTO r VALUES (3, 30)");
  let before = Db.partitions_pruned db in
  let low = Db.query admin "SELECT id FROM r ORDER BY id" in
  Alcotest.(check int) "low reader sees public rows" 2 (List.length low);
  Alcotest.(check bool) "secret partition was pruned" true
    (Db.partitions_pruned db > before);
  let high = Db.connect db ~principal:owner in
  Db.add_secrecy high tag;
  let all = Db.query high "SELECT id FROM r ORDER BY id" in
  Alcotest.(check int) "high reader sees all rows" 3 (List.length all);
  match Db.partition_report db with
  | [ { Db.tp_table = "r"; tp_stats } ] ->
      Alcotest.(check int) "two partitions in the directory" 2
        (List.length tp_stats);
      Alcotest.(check int) "three versions across partitions" 3
        (List.fold_left
           (fun acc ps -> acc + ps.Heap.ps_versions)
           0 tp_stats)
  | report ->
      Alcotest.failf "unexpected partition report (%d tables)"
        (List.length report)

(* ------------------------------------------------------------------ *)
(* IVM deltas skip foreign partitions                                  *)
(* ------------------------------------------------------------------ *)

(* A materialized view pinned to one label partition by an exact
   [_label = {…}] filter must ignore commits that only write other
   partitions — the satellite wiring label intervals into the commit
   hook.  Correctness first: the view still reflects writes to its own
   partition. *)
let test_ivm_partition_skip () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  let ta = Db.create_tag os ~name:"ta" () in
  let _tb = Db.create_tag os ~name:"tb" () in
  ignore (Db.exec admin "CREATE TABLE m (id INT PRIMARY KEY, v INT)");
  let sa = Db.connect db ~principal:owner in
  Db.add_secrecy sa ta;
  ignore (Db.exec sa "INSERT INTO m VALUES (1, 10)");
  ignore
    (Db.exec sa
       "CREATE MATERIALIZED VIEW mv AS SELECT id, v FROM m WHERE _label = \
        {ta}");
  let stat () =
    match List.filter (fun st -> st.Ifdb_engine.Ivm.vs_name = "mv")
            (Db.view_stats db) with
    | [ st ] -> st
    | _ -> Alcotest.fail "mv not registered"
  in
  Alcotest.(check bool) "delta maintenance on" true (stat ()).Ifdb_engine.Ivm.vs_supported;
  (* a commit entirely in another partition: provably irrelevant *)
  let sb = Db.connect db ~principal:owner in
  Db.add_secrecy sb _tb;
  ignore (Db.exec sb "INSERT INTO m VALUES (2, 20)");
  let st = stat () in
  Alcotest.(check bool) "foreign-partition commit skipped" true
    (st.Ifdb_engine.Ivm.vs_skipped >= 1);
  (* a commit in the pinned partition must still be applied *)
  ignore (Db.exec sa "INSERT INTO m VALUES (3, 30)");
  let reader = Db.connect db ~principal:owner in
  Db.add_secrecy reader ta;
  let rows = Db.query reader "SELECT id, v FROM mv ORDER BY id" in
  Alcotest.(check (list (list string)))
    "view reflects its own partition only"
    [ [ "1"; "10" ]; [ "3"; "30" ] ]
    (List.map
       (fun t -> List.map Value.to_string (Array.to_list (Tuple.values t)))
       rows);
  let st = stat () in
  Alcotest.(check bool) "own-partition commit applied" true
    (st.Ifdb_engine.Ivm.vs_deltas >= 1)

let suites =
  [
    ( "partition",
      [
        qcheck_reference ~count:40 ~parallelism:1 ~len:(5, 30)
          "engine = reference (serial)";
        qcheck_reference ~count:12 ~parallelism:par_width ~len:(60, 150)
          "engine = reference (parallel)";
        Alcotest.test_case "pruning observable" `Quick test_pruning_observable;
        Alcotest.test_case "IVM skips foreign partitions" `Quick
          test_ivm_partition_skip;
      ] );
  ]
