(** OrcGC — automatic lock-free memory reclamation (paper §4).

    OrcGC combines per-object reference counting of *hard links* (links
    stored in other objects or roots) with pass-the-pointer protection of
    *local references*.  Deploying it on a data structure follows the
    paper's methodology (§4.1.1) verbatim, modulo OCaml syntax:

    + give every node an embedded {!Memdom.Hdr.t} and list its link
      fields in {!NODE.iter_links};
    + allocate nodes with {!Make.alloc_node} / {!Make.alloc_node_into}
      (the [make_orc] of the paper);
    + mutate shared links only through {!Make.store}, {!Make.cas} and
      {!Make.exchange} (the [orc_atomic] operations);
    + hold local references in {!Make.Ptr} handles owned by a
      {!Make.with_guard} (or {!Make.enter}/{!Make.exit}) scope — the
      RAII [orc_ptr]s — reading with {!Make.load}, copying with
      {!Make.assign} and moving a traversal window with
      {!Make.Ptr.swap}.

    No retire or free call appears anywhere in the data structure: an
    object is reclaimed automatically at the first moment its hard-link
    count is zero and no thread protects it (Lemma 1 of the paper). *)

(** {2 The _orc word (Algorithm 3)} *)

val seq_unit : int
(** Increment that bumps the sequence field (bit 24 upward). *)

val bretired : int
(** The BRETIRED ownership bit (bit 23). *)

val orc_zero : int
(** Bias representing a zero hard-link count (bit 22), allowing the
    transient negative counts that CAS-after-increment ordering needs. *)

val ocnt : int -> int
(** Count-plus-BRETIRED portion of an [_orc] word (sequence stripped). *)

val retired_zero : int
(** [ocnt] value of an object with zero links owned by a retirer. *)

val max_haz : int
(** Capacity of each thread's hazard-pointer array. *)

(** {2 The address plane}

    Besides a node plane, each hazard slot has an int plane.  [load] on
    a tagged link publishes there the target's clean arena address —
    the link word with its mark bits cleared — without dereferencing
    it, as the paper's [get_protected] publishes the pointer it read.
    The scratch slot 0 publishes a uid key instead.  A scan that
    retires a node matches a slot against both of the node's keys. *)

val addr_empty : int
(** The empty value of an int hazard slot. *)

val addr_key : Memdom.Hdr.t -> int
(** [(slot + 1) lsl 3]: the clean word of every tagged link to the node.
    A published address pins whatever node occupies that arena slot,
    because a retired node's slot is released only by its free, which
    comes after the scan. *)

val uid_key : Memdom.Hdr.t -> int
(** [uid lsl 3 lor 7], the scratch slot's key.  Link words never end in
    7, so it never equals an address. *)

exception Out_of_hazard_indexes
(** Raised when one operation holds more than {!max_haz} live pointer
    handles — a bug in the data structure, not a runtime condition. *)

(** What OrcGC needs to know about a tracked object type. *)
module type NODE = sig
  type t

  val hdr : t -> Memdom.Hdr.t
  (** The header embedded in the node. *)

  val iter_links : t -> (t Atomicx.Link.t -> unit) -> unit
  (** Visit every [orc_atomic] field of the node; the destructor uses it
      to drop the node's outgoing hard links (cascading reclamation
      through the recursive list, §4.1). *)
end

module Make (N : NODE) : sig
  type node = N.t

  type t
  (** One OrcGC instance: the hazard/handover arrays and the allocator
      accounting for one data structure. *)

  type guard
  (** A per-operation protection scope — the lifetime within which
      pointer handles are valid (standing in for C++ block scope).
      Guards and handles allocate nothing: each tid owns one guard
      stack and one pooled handle stack, built on its first guard and
      reset by {!thread_exit}. *)

  val name : string

  val create :
    ?max_hps:int ->
    ?sink:Obs.Sink.t ->
    ?arena:node Atomicx.Link.arena ->
    Memdom.Alloc.t ->
    t
  (** [create alloc] builds an instance whose reclaimed objects return to
      [alloc].  [max_hps] is accepted for interface symmetry with the
      manual schemes and ignored (the hazard array is self-sizing).
      [sink] receives lifecycle events (retire, handover, cascade, scan,
      guard) and defaults to [Memdom.Alloc.sink alloc].  [arena] opts the
      structure into tagged-immediate links: links built through
      {!Make.new_link} / {!Make.new_link_v} use it, and [load] on a
      tagged link publishes the target's uid to an unboxed hazard plane
      — the read hot path then allocates nothing.  [create] also
      registers {!thread_exit} with [Atomicx.Registry.on_quarantine],
      so domain exit and [force_release] clean up departing tids
      automatically. *)

  val thread_exit : t -> tid:int -> unit
  (** Quarantine cleaner for a departing [tid]: unpublish its hazards,
      reset its hazard-index bookkeeping (so a recycled tid starts from
      an empty mask) and adopt everything its row still owned — queued
      recursive retires and parked handovers — through the operating
      thread's retire path.  Registered automatically by {!create};
      callable directly only when [tid]'s owner has exited or is
      provably stopped. *)

  val enter : t -> guard
  (** Open a guard on the calling thread's tid.  Guards nest, strictly
      LIFO: every [enter] is matched by one {!exit}, innermost first,
      and the value returned stands for the innermost open guard — a
      {!ptr} taken from it belongs to that guard.  Allocation-free once
      the tid has opened its first guard. *)

  val exit : guard -> unit
  (** Close the innermost open guard: every handle created in it is
      released (newest first), freed hazard slots are unpublished and
      parked handovers are adopted, exactly where the C++ [orc_ptr]
      destructors would run.  Its handles are invalid afterwards — their
      records are pooled and re-issued by later {!ptr} calls.  Raises
      [Invalid_argument] if no guard is open.  Callers bracketing by
      hand must call [exit] on exceptional paths too; {!with_guard}
      does that. *)

  val with_guard : t -> (guard -> 'a) -> 'a
  (** [with_guard t f] runs [f] between {!enter} and {!exit} — one
      data-structure operation.  On exit — normal or exceptional —
      every handle created in the scope is released, freed hazard slots
      are unpublished, and parked handovers are adopted.

      {b Neutralization handshake} (see {!Reclaim.Neutralize}): while a
      neutralizing reclaimer is armed, guard entry and exit acknowledge
      a pending neutralization silently, and {!load}, {!assign}, the
      mutators and {!alloc_node_into} acknowledge and raise
      [Reclaim.Neutralize.Neutralized] — every protection the guard
      held is gone, so the operation must restart under a fresh guard.
      A guard whose protections were expired mid-flight releases only
      its owner-local bookkeeping on exit; retirement of its targets
      has already passed to other threads.  Unarmed, the checks cost
      one shared atomic load each. *)

  (** Local references ([orc_ptr], Algorithm 7). *)
  module Ptr : sig
    type t

    val view : t -> node Atomicx.Link.view
    (** The exact link view this handle read — the value to use as a
        [cas_v] expectation.  On a tagged structure this is a raw word;
        holding or comparing it allocates nothing. *)

    val state : t -> node Atomicx.Link.state
    (** The held view decoded to the variant form (mark bits included).
        On a boxed structure this is the exact box read — usable as a
        physical CAS expectation; on a tagged structure it is a decoded
        (possibly fresh) box, for inspection only. *)

    val node : t -> node option
    val node_exn : t -> node
    val is_marked : t -> bool
    val is_poison : t -> bool
    val is_null : t -> bool
    val same_node : t -> t -> bool

    val retag_v : t -> node Atomicx.Link.view -> unit
    (** Replace the held view by another for the {e same} target — used
        after a successful CAS to keep validating against the value
        actually installed.  Raises [Invalid_argument] on a different
        target. *)

    val retag : t -> node Atomicx.Link.state -> unit
    (** {!retag_v} on the handle's representation of a state. *)

    val swap : t -> t -> unit
    (** [swap a b] exchanges the two handles' references together with
        their hazard indexes: [a] now holds what [b] held, protected by
        the slot that protected it, and vice versa.  Nothing is
        published, no count moves and no zero-count check runs — a
        traversal advances its window by renaming handles
        ([swap prev curr; swap curr next], then {!load} into [next])
        instead of copying protections with {!assign}.  Both handles
        must belong to the innermost open guard. *)
  end

  val ptr : guard -> Ptr.t
  (** A fresh null handle owning a hazard index, valid until the
      guard's {!exit}.  Raises [Invalid_argument] if no guard is
      open. *)

  val load : guard -> node Atomicx.Link.t -> Ptr.t -> unit
  (** [load g link p]: protect [link]'s current state in [p] (publish
      and re-validate, Algorithm 2 lines 4–11).  [link] must be
      reachable through a protected node or a root, and must not belong
      to the node [p] itself currently protects. *)

  val assign : guard -> Ptr.t -> Ptr.t -> unit
  (** [assign g dst src]: copy [src]'s reference and protection into
      [dst], observing the index-direction rule of the paper's
      assignment operator (copies only travel in hazard-scan order;
      otherwise a fresh higher index is taken). *)

  val alloc_node : guard -> (Memdom.Hdr.t -> node) -> Ptr.t
  (** [make_orc]: allocate a node (the callback receives its fresh
      header) and return it protected.  If it is never linked anywhere,
      it is reclaimed when the guard ends. *)

  val alloc_node_into : guard -> Ptr.t -> (Memdom.Hdr.t -> node) -> node
  (** Like {!alloc_node} but reusing an existing handle — for retry
      loops that would otherwise exhaust hazard indexes. *)

  (** {2 orc_atomic mutators (Algorithm 4)}

      All three maintain the hard-link counts of the old and new targets
      and trigger retirement when a count reaches zero.  The target of a
      written state must be protected by the caller (held in a live
      [Ptr] or freshly allocated). *)

  val store : guard -> node Atomicx.Link.t -> node Atomicx.Link.state -> unit

  val cas :
    guard ->
    node Atomicx.Link.t ->
    expected:node Atomicx.Link.state ->
    desired:node Atomicx.Link.state ->
    bool
  (** Counts move only on success; a pure mark/flag change on the same
      target moves no counts. *)

  val exchange :
    guard -> node Atomicx.Link.t -> node Atomicx.Link.state -> node Atomicx.Link.state

  val new_link : guard -> node Atomicx.Link.state -> node Atomicx.Link.t
  (** Build a link during single-threaded construction of a node or root
      whose initial target is private or otherwise protected.  The link
      follows the structure's representation (tagged when the instance
      was created with an [arena]). *)

  (** {2 View-plane mutators}

      The same count discipline as the state mutators, operating on raw
      {!Atomicx.Link.view}s — on a tagged structure these paths box
      nothing, and [cas_v] is a genuine single-word compare-and-set. *)

  val store_v : guard -> node Atomicx.Link.t -> node Atomicx.Link.view -> unit

  val cas_v :
    guard ->
    node Atomicx.Link.t ->
    expected:node Atomicx.Link.view ->
    desired:node Atomicx.Link.view ->
    bool
  (** Counts move only on success; a pure mark/flag change on the same
      target moves no counts. *)

  val v_ptr : t -> node -> node Atomicx.Link.view
  (** Clean-pointer view of a node the caller protects, in the
      structure's representation (registers the node in the arena when
      tagged — the caller must own the node privately or hold it
      protected). *)

  val new_link_v : guard -> node Atomicx.Link.view -> node Atomicx.Link.t
  (** {!new_link} on the view plane. *)

  (** {2 Introspection} *)

  val alloc_ctx : t -> Memdom.Alloc.t

  val unreclaimed : t -> int
  (** Objects currently retired (BRETIRED set) but not yet freed — the
      quantity bounded by O(Ht) (Table 1). *)

  type stats = {
    retires : int;  (** objects that ever entered the retired state *)
    handovers : int;  (** successful tryHandover passes (Algorithm 6) *)
    cascades : int;
        (** destructor-triggered recursive retires drained through the
            recursive list (§4.1) *)
    scans : int;  (** tryHandover invocations *)
    scan_slots : int;
        (** hazard slots visited by those invocations — whitebox check
            that scan cost is [registered * watermark] per scan, not
            [Registry.max_threads * watermark] *)
    elided : int;
        (** hazard publishes skipped by [load] because the slot already
            held the target (see {!Reclaim.Scan_set.elide_publish}) *)
  }

  val stats : t -> stats
  (** Monotonic observability counters, for benchmarks and forensics.
      Sharded per thread and aggregated here; a read concurrent with
      operations is exact to within one in-flight delta per thread. *)

  val hazard_watermark : t -> int
  (** [1 +] the highest hazard index ever used by any thread — the
      per-thread width of hazard scans (the H of the O(Ht) bound as
      actually instantiated). *)

  val set_background : t -> Reclaim.Channel.t option -> unit
  (** Background drain mode.  With [Some ch], a mutator that claims a
      zero-count object buffers it thread-locally and ships the batch
      to the reclaimer as a {!Reclaim.Channel.job} — BRETIRED ownership
      travels with the closure, and [retire] revalidates the count
      under the reclaimer's tid exactly as it would inline.  A refused
      send (channel closed or full — reclaimer dead or behind) retires
      the batch inline, so backpressure and reclaimer death degrade to
      the [None] behaviour.  [None] (the default) retires inline.
      Setup/teardown-only knob: flip it while the structure is
      quiescent, or accept that racing retires may use either path for
      one batch.  {!flush} drains the thread-local buffers but not the
      channel — stop or recover the reclaimer first. *)

  val tuning : t -> Reclaim.Tuning.t
  (** The structure's live knob record (fresh per {!create}). *)

  val set_tuning : t -> Reclaim.Tuning.t -> unit
  (** Swap in a (possibly shared) knob record.  The background batch
      size is read per buffered retire, so a retune takes effect on the
      next batch boundary. *)

  val flush : t -> unit
  (** Quiesced drain for tests and shutdown: unpublish every hazard,
      adopt every parked handover and retire the background buffers.
      Destroys all live protections — only call with no concurrent
      operations. *)
end
