type t = {
  snap_xmax : int;
  snap_xmin : int;
  in_progress : (int, unit) Hashtbl.t;
}

let make ~snap_xmax ~in_progress =
  let tbl = Hashtbl.create (List.length in_progress) in
  List.iter (fun x -> Hashtbl.replace tbl x ()) in_progress;
  {
    snap_xmax;
    snap_xmin = List.fold_left min snap_xmax in_progress;
    in_progress = tbl;
  }

let sees_xid t xid = xid < t.snap_xmax && not (Hashtbl.mem t.in_progress xid)
