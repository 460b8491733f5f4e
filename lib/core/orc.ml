(** OrcGC (paper §4, Algorithms 3–7): automatic lock-free memory
    reclamation by per-object reference counting of *hard links* plus
    pass-the-pointer protection of *local references*.

    Each tracked object's header carries the [_orc] word (Algorithm 3):
    bits 0–21 a signed hard-link count biased at [orc_zero], bit 23 the
    BRETIRED ownership bit, bits 24+ a sequence bumped on every count
    change.  Hard links are only mutated through {!store}, {!cas} and
    {!exchange}, which update the counts of the old and new targets; when
    a count returns to zero the mutator that observed it claims BRETIRED
    and runs [retire] (Algorithm 5), which may pass the object to a
    protecting thread ([tryHandover]), un-retire it if it became
    reachable again ([clearBitRetired]) or delete it — destructor
    included, which drops the object's own outgoing links and can cascade
    (drained iteratively through the recursive list to bound stack
    depth).

    Local references live in {!Ptr.t} handles owned by a per-operation
    {!enter}/{!exit} scope — the OCaml rendering of the C++ RAII
    [orc_ptr] (Algorithm 7), including the hazard-index sharing
    ([usedHaz]) and the copy-direction rule of the assignment operator.
    Like the paper's stack-allocated [orc_ptr]s, handles and guard scopes
    cost no heap allocation: each tid owns a pooled handle stack and a
    guard stack, both allocated on its first guard and reused by every
    later operation.

    Deviations from the paper's listing, both required for leak-freedom
    and documented in DESIGN.md: (1) releasing a hazard index drains its
    handover slot (as PTP's clear does); (2) [decrementOrc] clears the
    scratch hazard slot 0 before invoking retire — safe because the
    BRETIRED bit, not the hazard, protects the object inside retire — so
    a retiring thread never hands an object to itself. *)

open Atomicx

let seq_unit = 1 lsl 24
let bretired = 1 lsl 23
let orc_zero = 1 lsl 22
let ocnt x = x land (seq_unit - 1)
let retired_zero = bretired lor orc_zero

(* Capacity of each thread's hazard array; the watermark below keeps
   scans proportional to the indexes actually used. *)
let max_haz = 64

exception Out_of_hazard_indexes

(* The int hazard plane of a slot holds one of: [addr_empty]; the clean
   arena address [(slot + 1) lsl 3] of a word view, published by [load]
   with no dereference; or, in the scratch slot 0 only, a node's uid key
   [uid lsl 3 lor 7].  Word encodings never end in 7, so the two kinds
   of key never collide.  A scan matches both keys of the node it is
   retiring: an address pins whatever node occupies that arena slot,
   because a retired node's slot is released only by its free, after
   the scan found it unprotected. *)
let addr_empty = -1
let addr_key h = (h.Memdom.Hdr.slot + 1) lsl 3
let uid_key h = (h.Memdom.Hdr.uid lsl 3) lor 7

module type NODE = sig
  type t

  val hdr : t -> Memdom.Hdr.t
  (** The header embedded in the node. *)

  val iter_links : t -> (t Link.t -> unit) -> unit
  (** Visit every [orc_atomic] field of the node; the destructor uses it
      to drop the node's outgoing hard links. *)
end

module Make (N : NODE) = struct
  type node = N.t

  type tl_info = {
    hp : node option Atomic.t array; (* published hazardous pointers *)
    (* companion address plane for tagged links: [load] on a word view
       publishes the target's arena address here instead of boxing a
       [Some] (see [addr_key]).  Scans consult both planes. *)
    hp_addr : int Atomic.t array;
    handovers : node option Atomic.t array;
    used_haz : int array; (* orc_ptr share counts; owner-thread only *)
    free_idx : Bitmask.t; (* taken hazard indexes; owner-thread only *)
    mutable retire_started : bool;
    recursive : node Queue.t;
  }

  type t = {
    alloc : Memdom.Alloc.t;
    sink : Obs.Sink.t;
    (* the structure's tagged-link handle table, when it opted in via
       [create ?arena]; None keeps every view boxed (legacy behaviour) *)
    arena : node Link.arena option;
    tl : tl_info array;
    watermark : int Atomic.t; (* 1 + highest hazard index ever used *)
    pending : Shard.t; (* BRETIRED-marked objects not yet freed *)
    (* observability counters (monotonic, per-thread sharded) *)
    n_retires : Shard.t; (* objects that entered the retired state *)
    n_handovers : Shard.t; (* tryHandover successes *)
    n_cascades : Shard.t; (* destructor-triggered recursive retires *)
    n_scans : Shard.t; (* tryHandover invocations *)
    n_scan_slots : Shard.t; (* hazard slots visited by those scans *)
    n_elided : Shard.t; (* hazard publishes skipped in [load] *)
    wd : Obs.Watchdog.t; (* guard-stall stamp table *)
    (* background drain: when set, freshly claimed BRETIRED nodes are
       buffered per thread and shipped to the reclaimer in batches;
       None (the default) retires inline *)
    bg : Reclaim.Channel.t option Atomic.t;
    bg_buf : node list ref array; (* owner-thread only *)
    bg_count : int ref array; (* owner-thread only *)
    (* knob record: the batch size is read per buffered retire so the
       controller can retune it live *)
    mutable tuning : Reclaim.Tuning.t;
    (* strong reference keeping the weakly-registered quarantine
       cleaner alive exactly as long as this scheme *)
    mutable lifecycle : int -> unit;
    (* same keep-alive contract for the neutralize hook *)
    mutable neutralizer : int -> unit;
    (* strong reference keeping the weakly-registered metrics probes
       alive exactly as long as this scheme *)
    mutable metrics : (string * (unit -> int)) list;
    (* per-tid guard and handle stacks, built on the tid's first guard;
       owner-thread only *)
    guards : guard option array;
  }

  (* One per tid, reused by every guard that tid opens; the stacks
     say which guard owns which handles (see {!Guard_stack}).  A
     guard level's entry generation is checked at its exit: a mismatch
     means a neutralization expired the guard's protections mid-flight
     (see [Reclaim.Neutralize]) and the exit path must not act on
     them. *)
  and guard = { t : t; tid : int; row : tl_info; stack : ptr Guard_stack.t }

  (* An orc_ptr holds the link *view* it read (a raw word for tagged
     structures — no box per load) plus the arena needed to decode it
     for the compatibility [Ptr.state]/[Ptr.node] accessors. *)
  and ptr = {
    mutable v : node Link.view;
    mutable idx : int;
    ar : node Link.arena option;
  }

  type stats = {
    retires : int;
    handovers : int;
    cascades : int;
    scans : int;
    scan_slots : int;
    elided : int;
  }

  let name = "orc"
  let alloc_ctx t = t.alloc
  let orc_word n = (N.hdr n).Memdom.Hdr.orc

  (* Placeholder carried where a view has no target; only ever written
     or compared under a [v_has_target] guard, never dereferenced. *)
  let no_node : node = Obj.magic 0
  let target_of t v = Link.v_node_in t.arena v

  (* Clean-pointer view of a node the caller protects, in the
     structure's representation (registers the node in the arena when
     tagged — legal here because every call site still owns the node
     privately or holds it protected). *)
  let v_ptr t n =
    match t.arena with
    | Some a -> Link.v_ptr_in a n
    | None -> Link.v_of_state_in None (Link.Ptr n)
  let unreclaimed t = Shard.get t.pending
  let hazard_watermark t = Atomic.get t.watermark

  let stats t =
    {
      retires = Shard.get t.n_retires;
      handovers = Shard.get t.n_handovers;
      cascades = Shard.get t.n_cascades;
      scans = Shard.get t.n_scans;
      scan_slots = Shard.get t.n_scan_slots;
      elided = Shard.get t.n_elided;
    }

  (* Scratch protection in hazard slot 0 for the duration of a count
     update.  It publishes the uid key rather than an address because
     [p] may belong to a boxed structure with no arena slot; scans match
     a uid exactly like the node itself (uids never repeat, and [p] is
     alive — a hard link or BRETIRED holds it — so its uid is stable
     while published). *)
  let protect_scratch tl p = Atomic.set tl.hp_addr.(0) (uid_key (N.hdr p))

  let note_retired t ~tid n =
    let h = N.hdr n in
    Memdom.Hdr.mark_retired h;
    h.Memdom.Hdr.retired_ns <-
      Obs.Sink.on_retire t.sink ~tid ~uid:h.Memdom.Hdr.uid;
    Shard.incr t.pending ~tid;
    Shard.incr t.n_retires ~tid

  let note_unretired t ~tid n =
    let h = N.hdr n in
    Memdom.Hdr.unretire h;
    (* unreachable-again objects are no longer "waiting to be freed": a
       later free must not report a latency measured from this aborted
       retire *)
    h.Memdom.Hdr.retired_ns <- 0;
    Shard.add t.pending ~tid (-1)

  (* {2 Retire (Algorithm 5) and its helpers (Algorithm 6)} *)

  (* Scan every published hazardous pointer for [p]; on a match, swap [p]
     into the paired handover slot and return the evictee.  The scan
     covers [registered () * watermark] slots, and rows whose registry
     slot is Free are skipped entirely — a recycled slot cannot hold a
     protection (see [Registry.in_use] for the memory-ordering
     argument), so after a churn burst the scan cost shrinks back to
     the live slot population instead of staying at the monotone
     high-water mark forever. *)
  let try_handover t ~tid p =
    let began = Obs.Sink.scan_begin t.sink in
    let wm = Atomic.get t.watermark in
    let nreg = Registry.registered () in
    let h = N.hdr p in
    let pa = addr_key h and pk = uid_key h in
    let visited = ref 0 in
    let result = ref None in
    (try
       for it = 0 to nreg - 1 do
         if Registry.in_use it then begin
           let tl = t.tl.(it) in
           for idx = 0 to wm - 1 do
             incr visited;
             let hit =
               (let a = Atomic.get tl.hp_addr.(idx) in
                a = pa || a = pk)
               ||
               match Atomic.get tl.hp.(idx) with
               | Some m -> m == p
               | None -> false
             in
             if hit then begin
               result := Some (Atomic.exchange tl.handovers.(idx) (Some p));
               Shard.incr t.n_handovers ~tid;
               Obs.Sink.on_handover t.sink ~tid ~uid:h.Memdom.Hdr.uid;
               raise_notrace Exit
             end
           done
         end
       done
     with Exit -> ());
    Shard.incr t.n_scans ~tid;
    Shard.add t.n_scan_slots ~tid !visited;
    Obs.Sink.scan_end t.sink ~tid ~slots:!visited ~began;
    !result

  (* clearBitRetired (Algorithm 6 lines 147–158): give up BRETIRED
     ownership; if the count is back at zero immediately re-claim it.
     Returns the re-claimed [_orc] value, or 0 if ownership was lost.
     The header is un-retired {e before} the fetch_and_add releases
     BRETIRED: from that instant another thread's [dec] may re-claim
     [p] and mark its header retired, which must find it Live. *)
  let clear_bit_retired t ~tid p =
    let tl = t.tl.(tid) in
    protect_scratch tl p;
    note_unretired t ~tid p;
    let lorc = Atomic.fetch_and_add (orc_word p) (-bretired) - bretired in
    let reclaimed =
      ocnt lorc = orc_zero
      && Atomic.compare_and_set (orc_word p) lorc (lorc + bretired)
    in
    if reclaimed then note_retired t ~tid p;
    Atomic.set tl.hp_addr.(0) addr_empty;
    if reclaimed then lorc + bretired else 0

  (* The destructor: drop the node's outgoing hard links (each drop may
     cascade through [dec]), then return the memory. *)
  let rec delete t ~tid p =
    N.iter_links p (fun l ->
        let old = Link.exchange_v l Link.v_null in
        (* the dropped hard link keeps the child alive until [dec] *)
        if Link.v_has_target old then dec t ~tid (Link.v_target_exn l old));
    Memdom.Alloc.free t.alloc (N.hdr p);
    Shard.add t.pending ~tid (-1)

  (* retire (Algorithm 5 lines 92–118).  Precondition: the caller owns
     [p]'s BRETIRED bit.  Reentrant calls (from the destructor's [dec])
     queue onto the recursive list and are drained here, keeping the
     stack depth constant no matter how long the unreachable chain is. *)
  and retire t ~tid p =
    let tl = t.tl.(tid) in
    if tl.retire_started then begin
      Shard.incr t.n_cascades ~tid;
      Obs.Sink.on_cascade t.sink ~tid ~uid:(N.hdr p).Memdom.Hdr.uid;
      Queue.add p tl.recursive
    end
    else begin
      tl.retire_started <- true;
      retire_chain t ~tid p;
      while not (Queue.is_empty tl.recursive) do
        retire_chain t ~tid (Queue.take tl.recursive)
      done;
      tl.retire_started <- false
    end

  (* The body of retire's loop for one object, as tail recursion (no
     loop state on the heap): revalidate the count, un-retire if it
     moved, and on a successful handover continue with the evictee. *)
  and retire_chain t ~tid p =
    let lorc = Atomic.get (orc_word p) in
    if ocnt lorc <> retired_zero then begin
      let l = clear_bit_retired t ~tid p in
      if l <> 0 then hand_over_or_delete t ~tid p l
    end
    else hand_over_or_delete t ~tid p lorc

  (* [lorc] always has ocnt = retired_zero here (either read so, or
     just re-claimed by [clear_bit_retired]), so a word that moved
     across the scan is simply revalidated from the top. *)
  and hand_over_or_delete t ~tid p lorc =
    match try_handover t ~tid p with
    | Some (Some evictee) -> retire_chain t ~tid evictee
    | Some None -> ()
    | None ->
        if Atomic.get (orc_word p) <> lorc then retire_chain t ~tid p
        else delete t ~tid p

  (* Background split point: every non-lifecycle retirement funnels
     through here.  With a channel set, the freshly claimed node is
     buffered thread-locally and the batch shipped to the reclaimer as
     a job — BRETIRED ownership travels with the closure, and [retire]
     revalidates the count under the reclaimer's tid exactly as it
     would inline, so resurrection and handover behave identically.  A
     refused send (channel closed or full — reclaimer dead or behind)
     retires the batch inline: backpressure degrades to the [None]
     path.  The buffer is owner-private plain state, bounded by the
     bg batch knob, and drained by [thread_exit] and [flush]. *)
  and submit_retire t ~tid p =
    match Atomic.get t.bg with
    | None -> retire t ~tid p
    | Some ch ->
        let buf = t.bg_buf.(tid) and cnt = t.bg_count.(tid) in
        buf := p :: !buf;
        incr cnt;
        if !cnt >= Reclaim.Tuning.bg_batch t.tuning then begin
          let batch = !buf and n = !cnt in
          buf := [];
          cnt := 0;
          let job ~tid:rtid = List.iter (fun q -> retire t ~tid:rtid q) batch in
          if not (Reclaim.Channel.send ch ~tid ~count:n job) then
            List.iter (fun q -> retire t ~tid q) batch
        end

  (* incrementOrc (Algorithm 4 lines 38–43).  Caller must hold a
     protected reference to [p]. *)
  and inc t ~tid p =
    let lorc = Atomic.fetch_and_add (orc_word p) (seq_unit + 1) + seq_unit + 1 in
    if ocnt lorc = orc_zero then
      if Atomic.compare_and_set (orc_word p) lorc (lorc + bretired) then begin
        note_retired t ~tid p;
        submit_retire t ~tid p
      end

  (* decrementOrc (Algorithm 4 lines 45–51): protects [p] in the scratch
     hazard slot 0 for the duration of the count update. *)
  and dec t ~tid p =
    let tl = t.tl.(tid) in
    protect_scratch tl p;
    let lorc = Atomic.fetch_and_add (orc_word p) (seq_unit - 1) + seq_unit - 1 in
    if
      ocnt lorc = orc_zero
      && Atomic.compare_and_set (orc_word p) lorc (lorc + bretired)
    then begin
      note_retired t ~tid p;
      (* Drop the scratch protection before retiring: BRETIRED ownership
         keeps [p] alive inside retire, and a live scratch hazard would
         make the scan hand [p] to ourselves. *)
      Atomic.set tl.hp_addr.(0) addr_empty;
      submit_retire t ~tid p
    end
    else Atomic.set tl.hp_addr.(0) addr_empty

  (* An orc_ptr stopped referencing [p] (Algorithm 5 lines 84–89): if its
     count sits at zero, claim BRETIRED and retire it. *)
  let maybe_retire t ~tid p =
    let lorc = Atomic.get (orc_word p) in
    if ocnt lorc = orc_zero then
      if Atomic.compare_and_set (orc_word p) lorc (lorc + bretired) then begin
        note_retired t ~tid p;
        submit_retire t ~tid p
      end

  let drain_handover t ~tid idx =
    let tl = t.tl.(tid) in
    match Atomic.get tl.handovers.(idx) with
    | None -> ()
    | Some _ -> (
        match Atomic.exchange tl.handovers.(idx) None with
        | Some q ->
            (* q carries BRETIRED: we own it now *)
            submit_retire t ~tid q
        | None -> ())

  (* Quarantine cleaner (registered with [Registry.on_quarantine] by
     [create]): make a departing tid's row safe to re-issue.  Hazards
     come down first — once the row is all-None, no concurrent
     [try_handover] can park anything new on it — then the owner-local
     hazard-index bookkeeping is reset so the next owner starts from an
     empty mask (scratch slot 0 re-reserved), and finally everything
     the dead row still owned is adopted: queued recursive retires
     (possible only under abrupt death mid-retire) and parked handovers
     all carry BRETIRED, so the operating thread — the departing thread
     itself on the exit path, the survivor under [force_release] —
     owns them the moment it takes them and can run them through the
     normal retire path. *)
  let thread_exit t ~tid =
    let tl = t.tl.(tid) in
    let wm = Atomic.get t.watermark in
    for idx = 0 to wm - 1 do
      Atomic.set tl.hp.(idx) None;
      Atomic.set tl.hp_addr.(idx) addr_empty
    done;
    Array.fill tl.used_haz 0 (Array.length tl.used_haz) 0;
    Bitmask.reset tl.free_idx;
    ignore (Bitmask.acquire tl.free_idx ~from:0);
    (match t.guards.(tid) with
    | Some g -> Guard_stack.reset g.stack
    | None -> ());
    tl.retire_started <- false;
    let self = Registry.tid () in
    let rec drain_queue () =
      match Queue.take_opt tl.recursive with
      | Some q ->
          retire t ~tid:self q;
          drain_queue ()
      | None -> ()
    in
    drain_queue ();
    for idx = 0 to wm - 1 do
      match Atomic.exchange tl.handovers.(idx) None with
      | Some q -> retire t ~tid:self q
      | None -> ()
    done;
    (* the dead row's background buffer still owns its BRETIRED batch;
       retire it inline — quarantine must make progress even with the
       reclaimer gone, and the next owner of this tid starts empty *)
    (match !(t.bg_buf.(tid)) with
    | [] -> ()
    | batch ->
        t.bg_buf.(tid) := [];
        t.bg_count.(tid) := 0;
        List.iter (fun q -> retire t ~tid:self q) batch)

  (* Neutralize hook (registered with [Registry.on_neutralize] by
     [create]): expire a stalled tid's protections.  Only the row's
     {e atomic} planes are touched — both hazard planes come down so no
     scan can hand anything new to the row, then the parked handovers
     (sole ownership via exchange) are retired under the neutralizer's
     own tid.  Owner-private plain state (used_haz, free_idx, the
     recursive queue, the background buffer) is left alone: the victim
     may be alive and about to wake, and its buffer is bounded by
     [bg_batch].  The victim detects the generation bump at its next
     scheme entry point and restarts (see [Reclaim.Neutralize]). *)
  let neutralize_clear t ~tid =
    let tl = t.tl.(tid) in
    let wm = Atomic.get t.watermark in
    for idx = 0 to wm - 1 do
      Atomic.set tl.hp.(idx) None;
      Atomic.set tl.hp_addr.(idx) addr_empty
    done;
    let self = Registry.tid () in
    for idx = 0 to wm - 1 do
      match Atomic.exchange tl.handovers.(idx) None with
      | Some q -> retire t ~tid:self q
      | None -> ()
    done

  let set_background t ch = Atomic.set t.bg ch
  let tuning t = t.tuning
  let set_tuning t tn = t.tuning <- tn

  let create ?max_hps:_ ?sink ?arena alloc =
    let sink =
      match sink with Some s -> s | None -> Memdom.Alloc.sink alloc
    in
    let mk_tl _ =
      let free_idx = Bitmask.create max_haz in
      (* slot 0 is the permanently-reserved scratch hazard *)
      ignore (Bitmask.acquire free_idx ~from:0);
      {
        hp = Padded.atomic_array max_haz None;
        hp_addr = Padded.atomic_array max_haz addr_empty;
        handovers = Padded.atomic_array max_haz None;
        used_haz = Array.make max_haz 0;
        free_idx;
        retire_started = false;
        recursive = Queue.create ();
      }
    in
    let t =
      {
        alloc;
        sink;
        arena;
        tl = Array.init Registry.max_threads mk_tl;
        watermark = Atomic.make 1;
        pending = Shard.create ();
        n_retires = Shard.create ();
        n_handovers = Shard.create ();
        n_cascades = Shard.create ();
        n_scans = Shard.create ();
        n_scan_slots = Shard.create ();
        n_elided = Shard.create ();
        wd = Obs.Watchdog.create ();
        bg = Atomic.make None;
        bg_buf = Array.init Registry.max_threads (fun _ -> ref []);
        bg_count = Array.init Registry.max_threads (fun _ -> ref 0);
        tuning = Reclaim.Tuning.create ();
        lifecycle = ignore;
        neutralizer = ignore;
        metrics = [];
        guards = Array.make Registry.max_threads None;
      }
    in
    t.lifecycle <- (fun tid -> thread_exit t ~tid);
    Registry.on_quarantine t.lifecycle;
    t.neutralizer <- (fun tid -> neutralize_clear t ~tid);
    Registry.on_neutralize t.neutralizer;
    (* OrcGC's stats record is richer than [Scheme_intf.stats], so the
       probes are registered directly rather than through
       [register_metrics]; same weak-probe keep-alive contract. *)
    let labels = [ ("scheme", name) ] in
    let counters =
      [
        ("orcgc_retires_total", fun () -> Shard.get t.n_retires);
        ("orcgc_handovers_total", fun () -> Shard.get t.n_handovers);
        ("orcgc_cascades_total", fun () -> Shard.get t.n_cascades);
        ("orcgc_scans_total", fun () -> Shard.get t.n_scans);
        ("orcgc_scan_slots_total", fun () -> Shard.get t.n_scan_slots);
        ("orcgc_elided_total", fun () -> Shard.get t.n_elided);
      ]
    and gauges =
      [
        ("orcgc_unreclaimed", fun () -> Shard.get t.pending);
        ("orcgc_stall_age_max", fun () -> Obs.Watchdog.stall_age_max t.wd);
      ]
    in
    List.iter
      (fun (n, f) ->
        Obs.Metrics.probe Obs.Metrics.default ~labels ~counter:true n f)
      counters;
    List.iter
      (fun (n, f) -> Obs.Metrics.probe Obs.Metrics.default ~labels n f)
      gauges;
    t.metrics <- counters @ gauges;
    t

  (* {2 Hazard-index management (Algorithm 6 lines 119–132)} *)

  let rec bump_watermark t idx =
    let cur = Atomic.get t.watermark in
    if cur <= idx && not (Atomic.compare_and_set t.watermark cur (idx + 1))
    then bump_watermark t idx

  let get_new_idx t ~tid ~start =
    let tl = t.tl.(tid) in
    let idx = Bitmask.acquire tl.free_idx ~from:(max 1 start) in
    if idx < 0 then raise Out_of_hazard_indexes;
    tl.used_haz.(idx) <- 1;
    bump_watermark t idx;
    idx

  let using_idx t ~tid idx =
    if idx <> 0 then t.tl.(tid).used_haz.(idx) <- t.tl.(tid).used_haz.(idx) + 1

  (* Empty one hazard slot on both planes, skipping a plane that is
     already empty: each [Atomic.set] is a fenced exchange.  Skipping
     is safe because the owner is the only thread that publishes on its
     row — neutralize, quarantine and [flush] only ever write the empty
     value — so an empty read by the owner cannot be undone behind its
     back.  Owner-thread only. *)
  let unpublish slot addr_slot =
    (match Atomic.get slot with Some _ -> Atomic.set slot None | None -> ());
    if Atomic.get addr_slot <> addr_empty then Atomic.set addr_slot addr_empty

  (* clear (Algorithm 5 lines 80–90) extended with the handover drain:
     release one share of hazard slot [idx]; when the slot becomes free,
     unpublish it and adopt anything parked in its handover; finally give
     the no-longer-referenced object its zero-count check. *)
  let clear t ~tid v idx ~reuse =
    let tl = t.tl.(tid) in
    (* decode the view before unpublishing: once the hazard comes down
       the target can be freed and its arena slot re-issued, after
       which the word no longer means this node *)
    let had = Link.v_has_target v in
    let p = if had then target_of t v else no_node in
    let released =
      if (not reuse) && idx <> 0 then begin
        tl.used_haz.(idx) <- tl.used_haz.(idx) - 1;
        tl.used_haz.(idx) = 0
      end
      else false
    in
    if released then begin
      Bitmask.release tl.free_idx idx;
      unpublish tl.hp.(idx) tl.hp_addr.(idx);
      drain_handover t ~tid idx
    end;
    if had then maybe_retire t ~tid p

  (* {2 Guards and orc_ptr handles (Algorithm 7)} *)

  module Ptr = struct
    type t = ptr

    let view p = p.v
    let state p = Link.v_state_in p.ar p.v
    let is_marked p = Link.v_is_marked p.v
    let is_poison p = Link.v_is_poison p.v
    let is_null p = Link.v_is_null p.v

    let node p =
      if Link.v_has_target p.v then Some (Link.v_node_in p.ar p.v) else None

    let node_exn p =
      if Link.v_has_target p.v then Link.v_node_in p.ar p.v
      else invalid_arg "Orc.Ptr.node_exn: null"

    let same_node a b =
      match Link.v_has_target a.v, Link.v_has_target b.v with
      | true, true -> Link.v_node_in a.ar a.v == Link.v_node_in b.ar b.v
      | false, false -> true
      | true, false | false, true -> false

    (* Replace the held view by another for the *same* target — used
       after a successful CAS to keep validating against the value
       actually installed in memory.  Protection is unchanged, so the
       targets must match. *)
    let retag_v p v' =
      let ok =
        match Link.v_has_target v', Link.v_has_target p.v with
        | true, true -> Link.v_node_in p.ar v' == Link.v_node_in p.ar p.v
        | false, false -> true
        | true, false | false, true -> false
      in
      if ok then p.v <- v'
      else invalid_arg "Orc.Ptr.retag: different target"

    let retag p st = retag_v p (Link.v_of_state_in p.ar st)

    (* Rename rather than copy: the two handles trade their views
       together with their hazard indexes, so every slot keeps
       publishing exactly the node it published.  No protection moves
       between slots — no store, no count change, no zero-count check,
       and no copy-direction rule to observe.  Both handles must belong
       to the innermost open guard, whose exit releases whatever each
       record then holds. *)
    let swap a b =
      let v = a.v and idx = a.idx in
      a.v <- b.v;
      a.idx <- b.idx;
      b.v <- v;
      b.idx <- idx
  end

  let guard_of t tid =
    match t.guards.(tid) with
    | Some g -> g
    | None ->
        let fresh () = { v = Link.v_null; idx = 0; ar = t.arena } in
        let g =
          { t; tid; row = t.tl.(tid); stack = Guard_stack.create fresh }
        in
        t.guards.(tid) <- Some g;
        g

  let ptr g =
    if Guard_stack.depth g.stack = 0 then invalid_arg "Orc.ptr: no open guard";
    let idx = get_new_idx g.t ~tid:g.tid ~start:1 in
    let p = Guard_stack.push g.stack in
    p.idx <- idx;
    p.v <- Link.v_null;
    p

  (* Give [p] sole ownership of a hazard slot so it may be overwritten. *)
  let ensure_exclusive g p =
    let tl = g.row in
    if p.idx = 0 || tl.used_haz.(p.idx) > 1 then begin
      if p.idx <> 0 then tl.used_haz.(p.idx) <- tl.used_haz.(p.idx) - 1;
      p.idx <- get_new_idx g.t ~tid:g.tid ~start:1
    end

  (* orc_atomic<T*>::load() (Algorithm 4 lines 76–79) fused with the
     orc_ptr move: protect [link]'s current state directly in [p]'s own
     hazard slot, with the publish-and-revalidate loop of Algorithm 2.
     The link must be reachable through a protected node or a root, and
     must not belong to the node [p] itself currently protects.

     The protect loop lives at functor level with its free variables as
     arguments: an inner [let rec] would allocate its closure on every
     load, spoiling the allocation-free word path. *)
  let rec load_loop t ~tid slot addr_slot link v =
    if not (Link.v_has_target v) then begin
      unpublish slot addr_slot;
      let v' = Link.view link in
      if Link.view_eq v' v then v else load_loop t ~tid slot addr_slot link v'
    end
    else if Link.v_is_word v then begin
      (* allocation-free publish of the word's arena address, with no
         dereference (Algorithm 2 publishes the pointer it read).  The
         address pins whatever node occupies the slot, so the link still
         holding the same word validates the protection by itself; a
         stale publish merely protects the slot's next occupant, which
         is only dereferenced after a validation succeeds. *)
      let a = Link.v_addr v in
      (if !Reclaim.Scan_set.elide_publish && Atomic.get addr_slot = a then begin
         Shard.incr t.n_elided ~tid;
         Obs.Sink.on_elide t.sink ~tid
       end
       else begin
         Atomic.set addr_slot a;
         match Atomic.get slot with Some _ -> Atomic.set slot None | None -> ()
       end);
      let v' = Link.view link in
      if Link.view_eq v' v then v else load_loop t ~tid slot addr_slot link v'
    end
    else begin
      let n = Link.v_target_exn link v in
      (if
         !Reclaim.Scan_set.elide_publish
         && match Atomic.get slot with Some m -> m == n | None -> false
       then begin
         (* slot already publishes [n] (retry, or a mark-only change):
            the earlier store still protects it for every scanner *)
         Shard.incr t.n_elided ~tid;
         Obs.Sink.on_elide t.sink ~tid
       end
       else Atomic.set slot (Some n));
      let v' = Link.view link in
      if Link.view_eq v' v then v else load_loop t ~tid slot addr_slot link v'
    end

  let load g link p =
    Reclaim.Neutralize.check ~tid:g.tid;
    ensure_exclusive g p;
    let t = g.t and tid = g.tid and tl = g.row in
    let old = p.v in
    let had_old = Link.v_has_target old in
    (* decode the outgoing target before its hazard slot is overwritten:
       after the overwrite the old word may stop meaning this node *)
    let old_n = if had_old then target_of t old else no_node in
    p.v <-
      load_loop t ~tid tl.hp.(p.idx) tl.hp_addr.(p.idx) link (Link.view link);
    if had_old && not (Link.v_same old p.v) then maybe_retire t ~tid old_n

  (* Publish the target of view [v] in hazard slot [idx] on the plane
     matching [v]'s representation: a word view's arena address goes to
     the address plane (no box, no dereference), a boxed view's node to
     the node plane.  The other plane is cleared, keeping the two
     coherent. *)
  let publish t tl idx v =
    if Link.v_is_word v then begin
      Atomic.set tl.hp_addr.(idx) (Link.v_addr v);
      Atomic.set tl.hp.(idx) None
    end
    else begin
      Atomic.set tl.hp.(idx) (Some (target_of t v));
      Atomic.set tl.hp_addr.(idx) addr_empty
    end

  (* orc_ptr assignment (Algorithm 7 lines 182–194): copies between
     hazard slots may only travel in the scan direction (upward), so a
     copy to a lower slot re-publishes at a fresh higher index, while a
     copy to a higher slot shares the source's index. *)
  let assign g dst src =
    Reclaim.Neutralize.check ~tid:g.tid;
    if dst != src then begin
      let tl = g.row in
      let reuse = src.idx < dst.idx && tl.used_haz.(dst.idx) = 1 in
      clear g.t ~tid:g.tid dst.v dst.idx ~reuse;
      if src.idx < dst.idx then begin
        if not reuse then dst.idx <- get_new_idx g.t ~tid:g.tid ~start:(src.idx + 1);
        (* re-publish src's protection at dst's slot, keeping the two
           planes coherent; src's own slot protects the target across
           this window *)
        if not (Link.v_has_target src.v) then
          unpublish tl.hp.(dst.idx) tl.hp_addr.(dst.idx)
        else publish g.t tl dst.idx src.v
      end
      else begin
        using_idx g.t ~tid:g.tid src.idx;
        dst.idx <- src.idx
      end;
      dst.v <- src.v
    end

  (* make_orc<T> (Algorithm 3 lines 31–36): allocate, then protect the
     not-yet-shared node in a fresh slot. *)
  let run_mk g mk hdr =
    match mk hdr with
    | n -> n
    | exception e ->
        (* constructor failed: the header must not leak *)
        Memdom.Alloc.free g.t.alloc hdr;
        raise e

  let alloc_node g mk =
    let hdr = Memdom.Alloc.hdr g.t.alloc () in
    let n = run_mk g mk hdr in
    let p = ptr g in
    p.v <- v_ptr g.t n;
    publish g.t g.row p.idx p.v;
    p

  (* make_orc into an existing handle, for loops that allocate many nodes
     under one guard without exhausting hazard indexes. *)
  let alloc_node_into g p mk =
    Reclaim.Neutralize.check ~tid:g.tid;
    let hdr = Memdom.Alloc.hdr g.t.alloc () in
    let n = run_mk g mk hdr in
    ensure_exclusive g p;
    let old = p.v in
    let had_old = Link.v_has_target old in
    let old_n = if had_old then target_of g.t old else no_node in
    p.v <- v_ptr g.t n;
    publish g.t g.row p.idx p.v;
    if had_old && not (old_n == n) then maybe_retire g.t ~tid:g.tid old_n;
    n

  (* {2 orc_atomic mutators (Algorithm 4)} *)

  (* store (lines 63–67).  The target of [st], if any, must be protected
     by the caller (a live Ptr or a fresh node).

     All the mutators below start with a neutralization check: they act
     on the strength of the caller's protections, which a neutralized
     guard no longer holds (see [Reclaim.Neutralize]). *)
  let store g link st =
    Reclaim.Neutralize.check ~tid:g.tid;
    (match Link.target st with Some n -> inc g.t ~tid:g.tid n | None -> ());
    let old = Link.exchange link st in
    match Link.target old with Some n -> dec g.t ~tid:g.tid n | None -> ()

  (* compare_exchange (lines 69–74): counts move only on success, and a
     pure mark/unmark transition on the same target leaves them alone. *)
  let cas g link ~expected ~desired =
    Reclaim.Neutralize.check ~tid:g.tid;
    if Link.cas link expected desired then begin
      let te = Link.target expected and td = Link.target desired in
      (match te, td with
      | Some a, Some b when a == b -> ()
      | _ ->
          (match td with Some n -> inc g.t ~tid:g.tid n | None -> ());
          (match te with Some n -> dec g.t ~tid:g.tid n | None -> ()));
      true
    end
    else false

  let exchange g link st =
    Reclaim.Neutralize.check ~tid:g.tid;
    (match Link.target st with Some n -> inc g.t ~tid:g.tid n | None -> ());
    let old = Link.exchange link st in
    (match Link.target old with Some n -> dec g.t ~tid:g.tid n | None -> ());
    old

  (* View-plane mutators: same count discipline as above, but the old
     and new targets are decoded from views instead of boxed states —
     no allocation on tagged structures. *)

  let store_v g link v =
    Reclaim.Neutralize.check ~tid:g.tid;
    if Link.v_has_target v then inc g.t ~tid:g.tid (Link.v_target_exn link v);
    let old = Link.exchange_v link v in
    (* the exchanged-out hard link is ours now; it keeps the old target
       alive until this dec *)
    if Link.v_has_target old then dec g.t ~tid:g.tid (Link.v_target_exn link old)

  let cas_v g link ~expected ~desired =
    Reclaim.Neutralize.check ~tid:g.tid;
    if Link.cas_v link expected desired then begin
      let he = Link.v_has_target expected and hd = Link.v_has_target desired in
      let te = if he then Link.v_target_exn link expected else no_node in
      let td = if hd then Link.v_target_exn link desired else no_node in
      (if he && hd && te == td then ()
       else begin
         if hd then inc g.t ~tid:g.tid td;
         if he then dec g.t ~tid:g.tid te
       end);
      true
    end
    else false

  (* Build a link during single-threaded construction of a node or root
     whose initial target is private or otherwise protected. *)
  let new_link g st =
    (match Link.target st with Some n -> inc g.t ~tid:g.tid n | None -> ());
    match g.t.arena with
    | Some a -> Link.make_in a st
    | None -> Link.make st

  let new_link_v g v =
    if Link.v_has_target v then inc g.t ~tid:g.tid (Link.v_node_in g.t.arena v);
    match g.t.arena with
    | Some a -> Link.make_of_view a v
    | None -> Link.make (Link.v_state_in None v)

  (* Guard entry.  Handshake: a pending neutralization from a previous
     guard is acknowledged silently here — nothing is protected yet — and
     again in [exit], which must not raise (it runs on exception paths,
     [Neutralized] included). *)
  let enter t =
    let tid = Registry.tid () in
    Reclaim.Neutralize.ack ~tid;
    let g = guard_of t tid in
    Guard_stack.enter g.stack ~gen:(Registry.generation tid);
    Obs.Watchdog.enter t.wd ~tid;
    Obs.Sink.guard_begin t.sink ~tid;
    g

  (* Guard exit: pop the innermost level first, so the stacks stay
     consistent even if a release below raises, then release its
     handles newest first — where the C++ [orc_ptr] destructors run. *)
  let exit g =
    let t = g.t and tid = g.tid and tl = g.row and s = g.stack in
    let top = Guard_stack.top s in
    let gen = Guard_stack.leave s in
    let base = Guard_stack.top s in
    Reclaim.Neutralize.ack ~tid;
    (if Registry.generation tid = gen then
       for i = top - 1 downto base do
         let p = Guard_stack.handle s i in
         clear t ~tid p.v p.idx ~reuse:false
       done
     else
       (* A neutralization expired this guard: the hazard planes are
          already down and the parked handovers were adopted by the
          neutralizer.  Skipping the per-handle [maybe_retire] is
          mandatory, not an optimization — the unprotected targets may
          already be freed and their headers re-issued, so a stale
          zero-count claim here would retire a {e live} object.  Any
          zero-count node this guard referenced is (or will be) claimed
          by the thread whose dec zeroed it, or was parked on this row
          and adopted.  Only the owner-local index bookkeeping is reset,
          plus a drain for stragglers parked by scanners that read the
          hazards before they came down. *)
       for i = top - 1 downto base do
         let idx = (Guard_stack.handle s i).idx in
         if idx <> 0 then begin
           tl.used_haz.(idx) <- tl.used_haz.(idx) - 1;
           if tl.used_haz.(idx) = 0 then begin
             Bitmask.release tl.free_idx idx;
             unpublish tl.hp.(idx) tl.hp_addr.(idx);
             drain_handover t ~tid idx
           end
         end
       done);
    if Atomic.get tl.hp_addr.(0) <> addr_empty then
      Atomic.set tl.hp_addr.(0) addr_empty;
    drain_handover t ~tid 0;
    Obs.Sink.guard_end t.sink ~tid;
    Obs.Watchdog.leave t.wd ~tid

  let with_guard t f =
    let g = enter t in
    match f g with
    | r ->
        exit g;
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        exit g;
        Printexc.raise_with_backtrace e bt

  (* Quiesced drain for tests and shutdown: unpublish every hazard, adopt
     every parked object, and give every remaining BRETIRED owner-less
     object nothing — objects still pending after this are genuinely
     reachable (or leaked, which the tests assert against). *)
  let flush t =
    let tid = Registry.tid () in
    let wm = Atomic.get t.watermark in
    let nreg = Registry.registered () in
    for it = 0 to nreg - 1 do
      for idx = 0 to wm - 1 do
        Atomic.set t.tl.(it).hp.(idx) None;
        Atomic.set t.tl.(it).hp_addr.(idx) addr_empty
      done
    done;
    for it = 0 to nreg - 1 do
      for idx = 0 to wm - 1 do
        match Atomic.exchange t.tl.(it).handovers.(idx) None with
        | Some q -> retire t ~tid q
        | None -> ()
      done
    done;
    (* background buffers: batches parked by [submit_retire] that never
       reached the channel threshold still carry BRETIRED.  A retire
       here can cascade through [dec] back into [submit_retire] and
       re-buffer under an active channel, hence the fixpoint. *)
    let rec drain_bufs () =
      let progress = ref false in
      for it = 0 to nreg - 1 do
        match !(t.bg_buf.(it)) with
        | [] -> ()
        | batch ->
            t.bg_buf.(it) := [];
            t.bg_count.(it) := 0;
            progress := true;
            List.iter (fun q -> retire t ~tid q) batch
      done;
      if !progress then drain_bufs ()
    in
    drain_bufs ()
end
