(* A reference model of Query by Label for the trace language of
   [Test_partition]: one table [t (id INT PRIMARY KEY, v INT)], two
   tags [ta] and [tb] owned by the principal [owner], and INSERT,
   UPDATE, DELETE and SELECT statements, each run as its own implicit
   transaction in a fresh session whose label is a mask over the two
   tags.

   The model states the paper's rules directly over a list of labeled
   versions and nothing else — no indexes, partitions, caches,
   snapshots or parallelism:

   - Label Confinement (section 4.2): a process labeled [L_p] sees a
     tuple labeled [L_T] only if [L_T ⊆ L_p].
   - The Write Rule (section 4.2): a process may update or delete only
     tuples labeled exactly [L_p]; a visible tuple under any other
     label refuses the whole statement and leaves a
     [Write_rule_rejection] audit event naming that tuple's tags.
   - Uniqueness with polyinstantiation (section 5.2.1): the identity a
     primary key protects is (key, label), so an insert conflicts only
     with a live tuple of the same key {e and} the same label.
   - Clearance: each tag added to a session's label leaves a
     [Clearance_raise] audit event.

   State is the version list in insertion (vid) order.  An UPDATE
   retires the old version and appends a new one, so it moves the row
   to the end of that order, which is what breaks ties in ORDER BY. *)

module Audit = Ifdb_obs.Audit
module Errors = Ifdb_core.Errors

type op =
  | Insert of int * int * int  (* id, v, session label mask *)
  | Update of int * int * int  (* id, new v, session label mask *)
  | Delete of int * int        (* id, session label mask *)
  | Query of int               (* reader label mask *)

let pp_op = function
  | Insert (id, v, m) -> Printf.sprintf "Insert(%d,%d,%d)" id v m
  | Update (id, v, m) -> Printf.sprintf "Update(%d,%d,%d)" id v m
  | Delete (id, m) -> Printf.sprintf "Delete(%d,%d)" id m
  | Query m -> Printf.sprintf "Query(%d)" m

(* One statement's observable outcome: the rows it returned (values
   and label, rendered) or its affected count, or the error it
   raised. *)
type outcome =
  | Rows of (string list * string) list
  | Count of int
  | Error of string

(* Everything a trace reveals: each statement's outcome, the final
   state as a reader holding both tags sees it, and the audit stream
   as (kind, principal, tags). *)
type observation =
  outcome list
  * (string list * string) list
  * (Audit.kind * string * string list) list

(* ------------------------------------------------------------------ *)
(* Labels                                                              *)
(* ------------------------------------------------------------------ *)

(* A label is a mask: bit 0 is [ta], bit 1 is [tb]. *)
let tags mask =
  (if mask land 1 <> 0 then [ "ta" ] else [])
  @ if mask land 2 <> 0 then [ "tb" ] else []

let label_string mask = "{" ^ String.concat ", " (tags mask) ^ "}"

let flows ~src ~dst = src land dst = src

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type version = {
  vid : int;
  id : int;
  v : int;
  label : int;
  live : bool;  (* not yet deleted or superseded *)
}

let principal = "owner"

let error e = Error (Printexc.to_string e)

(* Label Confinement: the live versions a process labeled [mask] may
   read, in vid order. *)
let visible state mask =
  List.filter (fun r -> r.live && flows ~src:r.label ~dst:mask) state

let rows_of versions =
  List.stable_sort (fun a b -> compare (a.id, a.v) (b.id, b.v)) versions
  |> List.map (fun r ->
         ([ string_of_int r.id; string_of_int r.v ], label_string r.label))

let run (ops : op list) : observation =
  let audit = ref [] in
  let emit kind tags = audit := (kind, principal, tags) :: !audit in
  (* a fresh session raises its label to [mask], one tag at a time *)
  let session mask =
    List.iter (fun tag -> emit Audit.Clearance_raise [ tag ]) (tags mask)
  in
  let next_vid = ref 0 in
  let append state ~id ~v ~label =
    let r = { vid = !next_vid; id; v; label; live = true } in
    incr next_vid;
    state @ [ r ]
  in
  (* UPDATE / DELETE of key [id] by a process labeled [mask]: every
     visible target must carry exactly [mask]; the first one (in vid
     order) that does not refuses the statement, which then has no
     effect.  Otherwise [apply] rewrites the state, with the targets
     already retired. *)
  let write state ~action ~id ~mask apply =
    let targets = List.filter (fun r -> r.id = id) (visible state mask) in
    match List.find_opt (fun r -> r.label <> mask) targets with
    | Some r ->
        emit Audit.Write_rule_rejection (tags r.label);
        ( state,
          error
            (Errors.Flow_violation
               (Printf.sprintf
                  "%s of tuple labeled %s by process labeled %s violates \
                   the Write Rule (only exact-label tuples are writable)"
                  action (label_string r.label) (label_string mask))) )
    | None ->
        let retired =
          List.map
            (fun r ->
              if List.exists (fun t -> t.vid = r.vid) targets then
                { r with live = false }
              else r)
            state
        in
        (apply retired targets, Count (List.length targets))
  in
  let step state = function
    | Insert (id, v, mask) ->
        session mask;
        if List.exists (fun r -> r.live && r.id = id && r.label = mask) state
        then
          ( state,
            error
              (Errors.Constraint_violation
                 "duplicate key value violates unique constraint t_pkey") )
        else (append state ~id ~v ~label:mask, Count 1)
    | Update (id, v, mask) ->
        session mask;
        write state ~action:"UPDATE" ~id ~mask (fun state targets ->
            List.fold_left
              (fun state r -> append state ~id:r.id ~v ~label:mask)
              state targets)
    | Delete (id, mask) ->
        session mask;
        write state ~action:"DELETE" ~id ~mask (fun state _ -> state)
    | Query mask ->
        session mask;
        (state, Rows (rows_of (visible state mask)))
  in
  let state, outcomes =
    List.fold_left
      (fun (state, acc) op ->
        let state, o = step state op in
        (state, o :: acc))
      ([], []) ops
  in
  session 3;
  let final = rows_of (visible state 3) in
  (List.rev outcomes, final, List.rev !audit)
