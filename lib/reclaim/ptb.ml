(** Pass-the-buck (Herlihy, Luchangco & Moir [14]) — manual baseline.

    Guards are hazard slots; what differs from HP is [liberate]: a retired
    value found trapped by a guard is *handed off* to that guard through a
    versioned handoff slot (the paper's DWCAS — here a CAS on an immutable
    [(value, version)] box, which is atomic over both fields for free).
    The previous occupant of the handoff re-enters the liberation
    worklist.  Clearing a guard drains its handoff back into the owner's
    retired list.

    Each liberating thread still gathers a list proportional to the
    number of trapped values, so the bound stays O(Ht²) (Table 1) — the
    handover idea is what PTP (Algorithm 2) sharpens into a linear bound
    by *pushing* pointers forward instead of gathering them. *)

open Atomicx

module Make (N : Scheme_intf.NODE) : Scheme_intf.S with type node = N.t = struct
  type node = N.t
  type handoff = { v : node option; ver : int }

  type t = {
    alloc : Memdom.Alloc.t;
    sink : Obs.Sink.t;
    hps : int;
    post : node option Atomic.t array array; (* guards, [tid][idx] *)
    handoff : handoff Atomic.t array array;
    retired : node list ref array;
    scratch : Scan_set.t array; (* [tid]; per-liberate guard snapshots *)
    threshold : int Atomic.t;
    (* cached scaled R (Tuning.threshold), refreshed on crossing,
       quarantine and neutralization *)
    mutable tuning : Tuning.t;
    counters : Scheme_intf.Counters.t;
    orphans : node Orphan.t;
    wd : Obs.Watchdog.t; (* guard-stall stamp table *)
    bg : Channel.t option Atomic.t; (* background drain route *)
    (* strong reference keeping the weakly-registered quarantine
       cleaner alive exactly as long as this scheme *)
    mutable lifecycle : int -> unit;
    (* likewise for the neutralize hook (atomic-state-only clear) *)
    mutable neutralizer : int -> unit;
    (* strong reference keeping the weakly-registered metrics probes
       alive exactly as long as this scheme *)
    mutable metrics : (string * (unit -> int)) list;
  }

  let name = "ptb"
  let max_hps t = t.hps

  let begin_op t ~tid =
    Neutralize.ack ~tid;
    Obs.Watchdog.enter t.wd ~tid;
    Obs.Sink.guard_begin t.sink ~tid

  let protect_raw t ~tid ~idx n = Atomic.set t.post.(tid).(idx) n

  let copy_protection t ~tid ~src ~dst =
    Neutralize.check ~tid;
    Atomic.set t.post.(tid).(dst) (Atomic.get t.post.(tid).(src))

  let get_protected t ~tid ~idx link =
    Neutralize.check ~tid;
    let slot = t.post.(tid).(idx) in
    let rec loop st =
      Atomic.set slot (Link.target st);
      let st' = Link.get link in
      if st' == st then st else loop st'
    in
    loop (Link.get link)

  (* View-plane posting: the guard still holds the node itself (the
     liberate walk compares physically), so a word view is derefed
     before posting and re-derefed after — word equality alone does not
     prove the slot's meaning was stable (see hp.ml). *)
  let get_protected_v t ~tid ~idx link =
    Neutralize.check ~tid;
    let slot = t.post.(tid).(idx) in
    let rec loop v =
      if not (Link.v_has_target v) then begin
        Atomic.set slot None;
        let v' = Link.view link in
        if Link.view_eq v' v then v else loop v'
      end
      else begin
        let n = Link.v_target_exn link v in
        Atomic.set slot (Some n);
        let v' = Link.view link in
        if
          Link.view_eq v' v
          && ((not (Link.v_is_word v)) || Link.v_target_exn link v == n)
        then v
        else loop v'
      end
    in
    loop (Link.view link)

  let free_node t ~tid n =
    Scheme_intf.Counters.freed t.counters ~tid;
    Memdom.Alloc.free t.alloc (N.hdr n)

  (* Find a guard currently trapping [p].  Free rows post no guards
     (cleared on quarantine) — skip them, see [Registry.in_use]. *)
  let find_guard t ~visited p =
    let found = ref None in
    (try
       for it = 0 to Registry.registered () - 1 do
         if Registry.in_use it then
           for idx = 0 to t.hps - 1 do
             incr visited;
             match Atomic.get t.post.(it).(idx) with
             | Some m when m == p ->
                 found := Some (it, idx);
                 raise_notrace Exit
             | Some _ | None -> ()
           done
       done
     with Exit -> ());
    !found

  (* Snapshot every raised guard once, keyed by the trapped node's uid
     with the guard's coordinates packed into the payload, so each
     worklist item resolves its trapping guard in O(log Ht) instead of
     a fresh O(Ht) walk.  A guard raised after the snapshot belongs to
     a thread whose validation re-read finds the value already
     unlinked, and the legacy walk's single point-in-time read could
     equally miss it; a guard lowered after the snapshot at worst
     receives a handoff its owner's [clear] drains back (or [flush],
     when the owner has exited) — the same race the live walk has
     between [find_guard] and [hand]. *)
  let build_snapshot t ~tid ~visited =
    let s = t.scratch.(tid) in
    Scan_set.reset s;
    for it = 0 to Registry.registered () - 1 do
      if Registry.in_use it then
        for idx = 0 to t.hps - 1 do
          incr visited;
          match Atomic.get t.post.(it).(idx) with
          | Some m ->
              Scan_set.add_kv s ~key:(N.hdr m).Memdom.Hdr.uid
                ~value:((it * t.hps) + idx)
          | None -> ()
        done
    done;
    Scan_set.seal s;
    Scheme_intf.Counters.snapshot_built t.counters ~tid;
    Obs.Sink.on_snapshot t.sink ~tid ~entries:(Scan_set.size s)

  let liberate t ~tid values =
    let values =
      match Orphan.adopt t.orphans t.sink ~tid with
      | [] -> values
      | adopted -> List.rev_append adopted values
    in
    let began = Obs.Sink.scan_begin t.sink in
    let visited = ref 0 in
    let snapshot = !Scan_set.snapshot_scan in
    if snapshot then build_snapshot t ~tid ~visited;
    let find_trap p =
      if snapshot then begin
        match Scan_set.find t.scratch.(tid) (N.hdr p).Memdom.Hdr.uid with
        | -1 -> None
        | packed ->
            Scheme_intf.Counters.snapshot_hit t.counters ~tid;
            Some (packed / t.hps, packed mod t.hps)
      end
      else find_guard t ~visited p
    in
    let work = Queue.create () in
    List.iter (fun p -> Queue.add p work) values;
    let budget = ref (Queue.length work + (Registry.max_threads * t.hps) + 8) in
    let leftovers = ref [] in
    while not (Queue.is_empty work) do
      let p = Queue.pop work in
      if !budget <= 0 then leftovers := p :: !leftovers
      else begin
        decr budget;
        match find_trap p with
        | None -> free_node t ~tid p
        | Some (it, idx) ->
            let slot = t.handoff.(it).(idx) in
            let rec hand () =
              let h = Atomic.get slot in
              if Atomic.compare_and_set slot h { v = Some p; ver = h.ver + 1 }
              then match h.v with Some q -> Queue.add q work | None -> ()
              else hand ()
            in
            hand ()
      end
    done;
    t.retired.(tid) := !leftovers @ !(t.retired.(tid));
    Scheme_intf.Counters.scanned t.counters ~tid ~slots:!visited;
    Obs.Sink.scan_end t.sink ~tid ~slots:!visited ~began

  (* Empty one handoff slot.  The versioned exchange gives each value to
     exactly one drainer, whoever else drains the slot concurrently. *)
  let take_handoff t ~tid ~idx =
    let slot = t.handoff.(tid).(idx) in
    let h = Atomic.get slot in
    match h.v with
    | None -> None
    | Some _ -> (Atomic.exchange slot { v = None; ver = h.ver + 1 }).v

  let clear t ~tid ~idx =
    Atomic.set t.post.(tid).(idx) None;
    match take_handoff t ~tid ~idx with
    | Some q -> t.retired.(tid) := q :: !(t.retired.(tid))
    | None -> ()

  let end_op t ~tid =
    for idx = 0 to t.hps - 1 do
      clear t ~tid ~idx
    done;
    Neutralize.ack ~tid;
    Obs.Sink.guard_end t.sink ~tid;
    Obs.Watchdog.leave t.wd ~tid

  (* R = 2·H·t from the live Active-slot population, cached and
     refreshed on crossing (see [Hp.threshold_crossed]). *)
  let refresh_threshold t =
    Atomic.set t.threshold (Tuning.threshold t.tuning ~hps:t.hps)

  let threshold_crossed t ~count =
    count >= Atomic.get t.threshold
    && begin
         refresh_threshold t;
         count >= Atomic.get t.threshold
       end

  let set_background t ch = Atomic.set t.bg ch

  let retire t ~tid n =
    Neutralize.check ~tid;
    let h = N.hdr n in
    Memdom.Hdr.mark_retired h;
    h.Memdom.Hdr.retired_ns <-
      Obs.Sink.on_retire t.sink ~tid ~uid:h.Memdom.Hdr.uid;
    Scheme_intf.Counters.retired t.counters ~tid;
    t.retired.(tid) := n :: !(t.retired.(tid));
    if threshold_crossed t ~count:(List.length !(t.retired.(tid))) then begin
      let vs = !(t.retired.(tid)) in
      t.retired.(tid) := [];
      (* Background drain: the swapped-out worklist liberates on the
         reclaimer; a refused send (closed/full) liberates inline —
         see [Hp.drain_background] for the single-owner argument. *)
      let inline =
        match Atomic.get t.bg with
        | None -> true
        | Some ch ->
            let count = List.length vs in
            not
              (Channel.send ch ~tid ~count (fun ~tid:rtid ->
                   liberate t ~tid:rtid vs))
      in
      if inline then liberate t ~tid vs
    end

  (* Quarantine cleaner: lower the departing tid's guards, then drain
     its handoff slots — a value trapped in a dead guard's handoff has
     no owner left to [clear] it back into a retired list — and publish
     everything for adoption by the next liberator. *)
  let orphan t ~tid =
    for idx = 0 to t.hps - 1 do
      Atomic.set t.post.(tid).(idx) None
    done;
    refresh_threshold t;
    let trapped = ref [] in
    for idx = 0 to t.hps - 1 do
      match take_handoff t ~tid ~idx with
      | Some q -> trapped := q :: !trapped
      | None -> ()
    done;
    let batch = !trapped @ !(t.retired.(tid)) in
    t.retired.(tid) := [];
    Orphan.publish t.orphans t.sink ~tid batch

  let orphaned t = Orphan.pending t.orphans

  (* Neutralize hook: lower the victim's guards and drain its handoff
     slots — both atomic planes.  Values trapped in the handoffs go to
     the orphan pool (the victim's plain retired list is off-limits
     while it may be alive); the versioned exchange hands each value to
     exactly one drainer even if the victim wakes mid-pass and runs its
     own [clear]. *)
  let neutralize_clear t ~tid =
    for idx = 0 to t.hps - 1 do
      Atomic.set t.post.(tid).(idx) None
    done;
    refresh_threshold t;
    let trapped = ref [] in
    for idx = 0 to t.hps - 1 do
      match take_handoff t ~tid ~idx with
      | Some q -> trapped := q :: !trapped
      | None -> ()
    done;
    match !trapped with
    | [] -> ()
    | batch -> Orphan.publish t.orphans t.sink ~tid batch

  let create ?(max_hps = 8) ?sink alloc =
    let sink =
      match sink with Some s -> s | None -> Memdom.Alloc.sink alloc
    in
    let mk_posts _ = Padded.atomic_array max_hps None in
    let mk_handoffs _ =
      Array.init max_hps (fun _ -> Atomic.make { v = None; ver = 0 })
    in
    let t =
      {
        alloc;
        sink;
        hps = max_hps;
        post = Array.init Registry.max_threads mk_posts;
        handoff = Array.init Registry.max_threads mk_handoffs;
        retired = Array.init Registry.max_threads (fun _ -> ref []);
        scratch = Array.init Registry.max_threads (fun _ -> Scan_set.create ());
        threshold = Atomic.make (max 2 (2 * max_hps));
        tuning = Tuning.create ();
        counters = Scheme_intf.Counters.create ();
        orphans = Orphan.create ();
        wd = Obs.Watchdog.create ();
        bg = Atomic.make None;
        lifecycle = ignore;
        neutralizer = ignore;
        metrics = [];
      }
    in
    t.lifecycle <- (fun tid -> orphan t ~tid);
    Registry.on_quarantine t.lifecycle;
    t.neutralizer <- (fun tid -> neutralize_clear t ~tid);
    Registry.on_neutralize t.neutralizer;
    t.metrics <-
      Scheme_intf.register_metrics ~scheme:name
        ~stats:(fun () -> Scheme_intf.Counters.stats t.counters)
        ~unreclaimed:(fun () -> Scheme_intf.Counters.unreclaimed t.counters)
        ~wd:t.wd ();
    t

  let unreclaimed t = Scheme_intf.Counters.unreclaimed t.counters
  let stats t = Scheme_intf.Counters.stats t.counters
  let pp_stats fmt t = Scheme_intf.pp_stats_record fmt (stats t)

  let tuning t = t.tuning

  let set_tuning t tn =
    t.tuning <- tn;
    refresh_threshold t

  (* Besides the retired lists, empty every handoff slot.  A liberator
     that found a guard raised can hand it a value after the guard's
     owner already drained that slot (its [clear] ran first, or it
     exited and quarantine ran); the slot of an exited owner is never
     drained again.  [liberate] re-checks the guards, so a value that
     is still trapped is handed back. *)
  let flush t =
    for _ = 1 to 2 do
      for tid = 0 to Registry.registered () - 1 do
        let vs = ref !(t.retired.(tid)) in
        t.retired.(tid) := [];
        for idx = 0 to t.hps - 1 do
          match take_handoff t ~tid ~idx with
          | Some q -> vs := q :: !vs
          | None -> ()
        done;
        liberate t ~tid !vs
      done
    done
end
