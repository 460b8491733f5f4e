(** Atomic links between nodes, with mark/flag/tag bits and two
    interchangeable runtime representations.

    In the C++ original a link is a raw [std::atomic<Node*>] whose low
    bits carry deletion marks and whose CAS compares machine words.
    Historically this library rendered that as a boxed variant
    ([state]) in an [Atomic.t]; since the word-packing PR a link can
    also be a {e tagged immediate}: one atomic int word, stored in the
    link block itself, holding the target's arena-slot index shifted
    left 3 with the mark/flag/tag bits in the low bits ([Null] = 0,
    [Poison] = 1).  The tagged form
    is what the paper's O(1) cost model assumes — reads allocate
    nothing and CAS is a genuine word compare-and-set.

    {b Representation choice.}  Links built with {!make} are always
    boxed.  Links built with {!make_in} follow their {!arena}'s
    snapshot of {!tagged} taken at arena creation, so one structure
    never mixes representations mid-life and unconverted structures
    keep the historical semantics regardless of the ablation setting.

    {b CAS semantics.}  On a boxed link, [Atomic.compare_and_set]
    compares the box physically: a competitor writing a fresh box with
    the same logical content makes the CAS fail — a spurious retry,
    indistinguishable from contention, never a safety issue.  On a
    tagged link the comparison is by {e value}: any state that encodes
    to the same word matches, which eliminates that spurious-retry
    class entirely (see DESIGN.md, "Word-packed representation").

    {b Views} are the allocation-free read surface shared by both
    representations: a view of a boxed link is the state value itself
    and a view of a tagged link is the raw word, distinguished at
    runtime by immediacy.  {!view_eq} is physical equality, which on
    boxed views is exactly the historical box-identity validation and
    on tagged views is word equality. *)

type 'a state =
  | Null
  | Ptr of 'a
  | Mark of 'a
  | Flag of 'a
  | Tag of 'a
  | FlagTag of 'a
  | Poison

type 'a t
(** A link.  No longer concretely ['a state Atomic.t]: use the
    accessors below. *)

type 'a view
(** What a link currently holds, in its native representation: the
    state value of a boxed link, the raw word of a tagged link.
    Reading, comparing and bit-twiddling views never allocates.  See
    the {e Views} section below. *)

val tagged : bool ref
(** Ablation switch (default [true]): arenas created while [false]
    produce boxed links, restoring the historical behaviour for every
    structure created under that setting. *)

(** {2 Arenas (handle tables)}

    A tagged word names its target by index into a per-structure
    arena: a lock-free chunked table whose chunks never move (so a
    registration store cannot be lost to growth) with a version-counted
    free-list of recycled slots.  A slot keeps its last occupant until
    reuse — type-stable memory, the same assumption the paper's
    reclamation schemes already make.  Registration happens on the
    thread that still owns the node privately; release is wired through
    {!Memdom.Hdr.t} by the allocator when the node is freed. *)

type 'a arena

val arena :
  slot_of:('a -> int) ->
  on_register:('a -> int -> release:(int -> unit) -> unit) ->
  unit ->
  'a arena
(** [arena ~slot_of ~on_register ()] builds a handle table.  [slot_of]
    reads the node's stored slot (-1 when unregistered); [on_register]
    stores a freshly assigned slot and the [release] callback into the
    node (typically its header), to be invoked once when the node is
    freed. *)

val arena_tagged : 'a arena -> bool
(** The [!tagged] snapshot this arena took at creation. *)

val arena_registered : 'a arena -> int
val arena_released : 'a arena -> int
val arena_live : 'a arena -> int
val arena_capacity : 'a arena -> int
(** Diagnostics: total registrations, released slots, their
    difference, and the bump-allocated slot high-water. *)

(** {2 Construction} *)

val make : 'a state -> 'a t
(** Always boxed. *)

val make_in : 'a arena -> 'a state -> 'a t
(** Representation per [arena_tagged]; registers the target when the
    arena is tagged and the target was never registered. *)

val make_of_view : 'a arena -> 'a view -> 'a t
(** Like {!make_in} but seeded from a view (no decode round-trip). *)

(** {2 State API (compatibility layer)}

    On tagged links, [get]/[exchange] materialize a fresh state box per
    call and [set]/[cas] encode their arguments — correct but
    allocating; hot paths should use views. *)

val get : 'a t -> 'a state
val set : 'a t -> 'a state -> unit

val cas : 'a t -> 'a state -> 'a state -> bool
(** [cas l expected desired] — physical box comparison on boxed links,
    value comparison on tagged links (see the header comment). *)

val exchange : 'a t -> 'a state -> 'a state

val target : 'a state -> 'a option
val is_marked : 'a state -> bool
val is_flagged : 'a state -> bool
val is_tagged : 'a state -> bool
val is_poison : 'a state -> bool

val with_tag : 'a state -> 'a state
(** Set the tag bit, preserving target and flag ([Null]/[Poison]/[Mark]
    are returned unchanged — only BST edge states carry tags). *)

val clean : 'a state -> 'a state
(** Strip mark/flag/tag: [Ptr n] for any state targeting [n], [Null] or
    [Poison] unchanged. *)

val same : 'a state -> 'a state -> bool
(** Logical equality: same constructor and physically-equal target. *)

val pp :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a state -> unit

(** {2 Views — the allocation-free hot path} *)

val view : 'a t -> 'a view
val view_eq : 'a view -> 'a view -> bool
(** Physical equality: box identity for boxed views (the historical
    validation), word equality for tagged views. *)

val v_null : 'a view
val v_is_null : 'a view -> bool
val v_is_poison : 'a view -> bool
val v_is_marked : 'a view -> bool
val v_is_flagged : 'a view -> bool
val v_is_tagged : 'a view -> bool
val v_has_target : 'a view -> bool

val v_is_word : 'a view -> bool
(** [true] iff the view is a tagged word (always [false] for views of
    boxed links). *)

val v_addr : 'a view -> int
(** The target's arena address of a word view with a target: the word
    with its mark/flag/tag bits cleared, [(slot + 1) lsl 3].  It names
    the arena slot, not the node: once the node is freed the slot may
    hold another.  Only meaningful when [v_is_word v && v_has_target v]. *)

val v_clean : 'a view -> 'a view
(** Strip mark/flag/tag.  Pure arithmetic on words; allocates the clean
    state on boxes (as the boxed algorithms always did). *)

val v_mark : 'a view -> 'a view
(** Set the mark bit on a view with a target; identity otherwise. *)

val v_same : 'a view -> 'a view -> bool
(** {!same} lifted to views: value equality on words, logical equality
    on boxes.  Physically equal views are always [v_same]. *)

val v_target_exn : 'a t -> 'a view -> 'a
(** Dereference through the link's arena (any link of the same
    structure works).  Raises [Invalid_argument] on [Null]/[Poison].
    {b Stability:} the result is only guaranteed to stay the word's
    meaning while the caller's reclamation protection (hazard/era/orc
    count) pins the target — exactly the discipline the schemes already
    enforce for boxed states. *)

val v_node : 'a arena -> 'a view -> 'a
(** Like {!v_target_exn} with an explicit arena. *)

val v_node_in : 'a arena option -> 'a view -> 'a
(** Like {!v_node}; [None] is accepted for views that are provably
    boxed (raises [Invalid_argument] on a word view). *)

val v_ptr_in : 'a arena -> 'a -> 'a view
(** The clean-pointer view of [n] in the arena's representation
    (registers [n] when tagged). *)

val v_of_state_in : 'a arena option -> 'a state -> 'a view
val v_state_in : 'a arena option -> 'a view -> 'a state
val v_state : 'a t -> 'a view -> 'a state

val set_v : 'a t -> 'a view -> unit
val cas_v : 'a t -> 'a view -> 'a view -> bool
(** Physical CAS on boxed links, word CAS on tagged links.  Views
    produced by the other representation are converted on the way in
    (a word view can only be written to a boxed link when it is
    [Null]/[Poison]). *)

val exchange_v : 'a t -> 'a view -> 'a view
