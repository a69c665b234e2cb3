(** Transaction snapshots for snapshot isolation.

    A snapshot captures, at BEGIN time, the set of transactions whose
    effects are invisible: everything not yet committed then.  The
    prototype in the paper runs PostgreSQL's MVCC under snapshot
    isolation (section 5.1); we reproduce that choice. *)

type t = {
  snap_xmax : int;
  (** First xid invisible to this snapshot: every xid >= this started
      after the snapshot was taken. *)
  snap_xmin : int;
  (** Oldest xid whose outcome this snapshot may not see: the smallest
      of [snap_xmax] and the [in_progress] xids.  Every xid below it
      that committed is visible to this snapshot. *)
  in_progress : (int, unit) Hashtbl.t;
  (** Xids below [snap_xmax] that were still running at snapshot
      time. *)
}

val make : snap_xmax:int -> in_progress:int list -> t

val sees_xid : t -> int -> bool
(** [sees_xid s xid]: did [xid] commit before this snapshot was taken,
    as far as timing is concerned?  (The caller must additionally check
    that [xid] actually committed.) *)
