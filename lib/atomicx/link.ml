(* Atomic links with two interchangeable representations:

   - Boxed: the historical ['a state Atomic.t] — every read returns a
     heap-allocated variant box, CAS compares boxes physically.
   - Tagged: an int word, in field 0 of the link block itself, holding
     the target's arena slot shifted left 3 plus mark/flag/tag bits,
     with Null = 0 and Poison = 1 — the C++ original's word-tagged
     pointer, CAS compares values.

   The representation is chosen per structure: links made through
   [make_in arena] follow the arena's snapshot of [!tagged]; links made
   through [make] are always Boxed, so structures that were never
   converted to the view API keep today's physical-equality semantics
   regardless of the ablation setting.

   Views ([!view] etc.) are the allocation-free read surface: a view of
   a Boxed link IS the state value it holds (block, or immediate 0/1
   for Null/Poison); a view of a Tagged link IS the raw word.  The two
   never collide: Null and Poison encode as the same immediates 0 and 1
   in both representations, and every other tagged word is >= 8 while
   every other boxed state is a block.  [Obj.is_int] therefore fully
   describes a view, except for dereferencing, which needs the arena. *)

type 'a state =
  | Null
  | Ptr of 'a
  | Mark of 'a
  | Flag of 'a
  | Tag of 'a
  | FlagTag of 'a
  | Poison

let tagged = ref true

(* {2 Arena: a per-structure lock-free handle table}

   Nodes are registered into fixed-size chunks (never moved, so a
   concurrent registration store can't be lost to a growth copy) and
   addressed by slot index.  Freed slots go through a version-counted
   Treiber free-list of ints; a slot keeps its last occupant until
   reuse, which is exactly the type-stable-memory semantics the paper's
   schemes assume. *)

let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let n_chunks = 8192
let max_slots = n_chunks * chunk_size

(* free-list head packing: (version lsl slot1_bits) lor (slot + 1);
   slot+1 = 0 means empty.  24 bits cover max_slots + 1.  Sized for the
   KV-service scenario: a split-ordered map at 4M regular keys plus its
   dummy nodes must fit one arena (chunks are lazy, so a small structure
   still only materialises the slots it touches). *)
let slot1_bits = 24
let slot1_mask = (1 lsl slot1_bits) - 1

type chunk = { nodes : Obj.t array; free_next : int array }

type 'a arena = {
  use_tagged : bool; (* snapshot of [!tagged] at creation *)
  chunks : chunk option Atomic.t array;
  free_head : int Atomic.t;
  next_fresh : int Atomic.t;
  slot_of : Obj.t -> int;
  on_register : Obj.t -> int -> release:(int -> unit) -> unit;
  mutable release_fn : int -> unit;
  n_registered : int Atomic.t;
  n_released : int Atomic.t;
}

let rec chunk_for a b =
  match Atomic.get a.chunks.(b) with
  | Some c -> c
  | None ->
      let c =
        {
          nodes = Array.make chunk_size (Obj.repr 0);
          free_next = Array.make chunk_size (-1);
        }
      in
      if Atomic.compare_and_set a.chunks.(b) None (Some c) then c
      else chunk_for a b

(* Deref is the tagged read hot path: two atomic loads and one plain
   load, no allocation. *)
let deref a s =
  match Atomic.get a.chunks.(s lsr chunk_bits) with
  | Some c ->
      let n = c.nodes.(s land (chunk_size - 1)) in
      if Obj.is_int n then
        invalid_arg "Link.arena: dereference of unregistered slot"
      else Obj.obj n
  | None -> invalid_arg "Link.arena: dereference of unallocated chunk"

let set_free_next a s v =
  (chunk_for a (s lsr chunk_bits)).free_next.(s land (chunk_size - 1)) <- v

let get_free_next a s =
  match Atomic.get a.chunks.(s lsr chunk_bits) with
  | Some c -> c.free_next.(s land (chunk_size - 1))
  | None -> -1

(* Pop a recycled slot.  The version in the upper bits makes the CAS
   fail if any pop/push completed since [h] was read, so the stale
   [free_next] read cannot be installed (no ABA). *)
let rec pop_free a =
  let h = Atomic.get a.free_head in
  let s1 = h land slot1_mask in
  if s1 = 0 then -1
  else
    let s = s1 - 1 in
    let nxt = get_free_next a s in
    let h' = (((h lsr slot1_bits) + 1) lsl slot1_bits) lor (nxt + 1) in
    if Atomic.compare_and_set a.free_head h h' then s else pop_free a

let rec push_free a s =
  let h = Atomic.get a.free_head in
  set_free_next a s ((h land slot1_mask) - 1);
  let h' = (((h lsr slot1_bits) + 1) lsl slot1_bits) lor (s + 1) in
  if not (Atomic.compare_and_set a.free_head h h') then push_free a s

let release_slot a s =
  if s >= 0 && s < max_slots then begin
    Atomic.incr a.n_released;
    push_free a s
  end

let alloc_slot a =
  match pop_free a with
  | s when s >= 0 -> s
  | _ ->
      let s = Atomic.fetch_and_add a.next_fresh 1 in
      if s >= max_slots then failwith "Link.arena: slot table exhausted";
      ignore (chunk_for a (s lsr chunk_bits));
      s

(* Registration must be performed by the thread that owns the node
   privately (in practice: its allocator, before first publication), so
   it needs no synchronization against itself.  The slot's content
   store is published to other threads by the atomic link-word store
   that follows it. *)
let register a n =
  let s = alloc_slot a in
  (match Atomic.get a.chunks.(s lsr chunk_bits) with
  | Some c -> c.nodes.(s land (chunk_size - 1)) <- Obj.repr n
  | None -> assert false);
  Atomic.incr a.n_registered;
  a.on_register (Obj.repr n) s ~release:a.release_fn;
  s

let ensure_registered a n =
  let s = a.slot_of (Obj.repr n) in
  if s >= 0 then s else register a n

let arena (type n) ~(slot_of : n -> int)
    ~(on_register : n -> int -> release:(int -> unit) -> unit) () =
  let a =
    {
      use_tagged = !tagged;
      chunks = Array.init n_chunks (fun _ -> Atomic.make None);
      free_head = Atomic.make 0;
      next_fresh = Atomic.make 0;
      slot_of = (fun o -> slot_of (Obj.obj o));
      on_register = (fun o s ~release -> on_register (Obj.obj o) s ~release);
      release_fn = ignore;
      n_registered = Atomic.make 0;
      n_released = Atomic.make 0;
    }
  in
  a.release_fn <- (fun s -> release_slot a s);
  (Obj.magic a : n arena)

let arena_tagged (a : _ arena) = a.use_tagged
let arena_registered a = Atomic.get a.n_registered
let arena_released a = Atomic.get a.n_released
let arena_live a = arena_registered a - arena_released a
let arena_capacity a = Atomic.get a.next_fresh

(* {2 Word encoding}

   word = (slot + 1) lsl 3 lor bits, bits: 0 clean, 1 mark, 2 flag,
   4 tag, 6 flag+tag.  Null = 0, Poison = 1; words 2..7 never occur. *)

let b_clean = 0
let b_mark = 1
let b_flag = 2
let b_tag = 4
let b_flagtag = 6
let w_null = 0
let w_poison = 1

let word_of a n bits = ((ensure_registered a n + 1) lsl 3) lor bits

let encode a = function
  | Null -> w_null
  | Poison -> w_poison
  | Ptr n -> word_of a n b_clean
  | Mark n -> word_of a n b_mark
  | Flag n -> word_of a n b_flag
  | Tag n -> word_of a n b_tag
  | FlagTag n -> word_of a n b_flagtag

let decode a w =
  if w = w_null then Null
  else if w = w_poison then Poison
  else
    let n = deref a ((w lsr 3) - 1) in
    match w land 7 with
    | 0 -> Ptr n
    | 1 -> Mark n
    | 2 -> Flag n
    | 4 -> Tag n
    | 6 -> FlagTag n
    | _ -> assert false

(* {2 Links} *)

(* A tagged link is one block: the word sits in field 0 of the [T]
   block itself rather than in a separate [int Atomic.t], so a hop reads
   one block for the link, not two.  [Atomic] operations act on field 0
   of whatever block they are given, which makes the [T] block its own
   [int Atomic.t]; [tw] is the only way the word is reached.  The field
   is [mutable] so the compiler never treats the block as immutable, and
   nothing reads it non-atomically (OCaml >= 5.4 spells this as an
   [@atomic] record field). *)
type 'a t =
  | B of 'a state Atomic.t
  | T of { mutable word : int; arena : 'a arena } [@warning "-69"]

let tw (l : 'a t) : int Atomic.t = Obj.magic l
let make st = B (Atomic.make st)

let make_in a st =
  if a.use_tagged then T { word = encode a st; arena = a }
  else B (Atomic.make st)

let get l =
  match l with
  | B b -> Atomic.get b
  | T { arena; _ } -> decode arena (Atomic.get (tw l))

let set l st =
  match l with
  | B b -> Atomic.set b st
  | T { arena; _ } -> Atomic.set (tw l) (encode arena st)

let cas l expected desired =
  match l with
  | B b -> Atomic.compare_and_set b expected desired
  | T { arena; _ } ->
      (* genuine word compare-and-set: any state with the same target
         and bits matches, whatever box it came from *)
      Atomic.compare_and_set (tw l) (encode arena expected)
        (encode arena desired)

let exchange l st =
  match l with
  | B b -> Atomic.exchange b st
  | T { arena; _ } -> decode arena (Atomic.exchange (tw l) (encode arena st))

let target = function
  | Null | Poison -> None
  | Ptr n | Mark n | Flag n | Tag n | FlagTag n -> Some n

let is_marked = function
  | Mark _ -> true
  | Null | Ptr _ | Flag _ | Tag _ | FlagTag _ | Poison -> false

let is_flagged = function
  | Flag _ | FlagTag _ -> true
  | Null | Ptr _ | Mark _ | Tag _ | Poison -> false

let is_tagged = function
  | Tag _ | FlagTag _ -> true
  | Null | Ptr _ | Mark _ | Flag _ | Poison -> false

let is_poison = function
  | Poison -> true
  | Null | Ptr _ | Mark _ | Flag _ | Tag _ | FlagTag _ -> false

let with_tag = function
  | Ptr n -> Tag n
  | Flag n -> FlagTag n
  | (Tag _ | FlagTag _ | Null | Poison | Mark _) as st -> st

let clean = function
  | Ptr n | Mark n | Flag n | Tag n | FlagTag n -> Ptr n
  | (Null | Poison) as st -> st

let same a b =
  match a, b with
  | Null, Null | Poison, Poison -> true
  | Ptr x, Ptr y | Mark x, Mark y | Flag x, Flag y | Tag x, Tag y
  | FlagTag x, FlagTag y ->
      x == y
  | (Null | Ptr _ | Mark _ | Flag _ | Tag _ | FlagTag _ | Poison), _ -> false

let pp pp_node fmt = function
  | Null -> Format.pp_print_string fmt "null"
  | Poison -> Format.pp_print_string fmt "poison"
  | Ptr n -> Format.fprintf fmt "ptr(%a)" pp_node n
  | Mark n -> Format.fprintf fmt "mark(%a)" pp_node n
  | Flag n -> Format.fprintf fmt "flag(%a)" pp_node n
  | Tag n -> Format.fprintf fmt "tag(%a)" pp_node n
  | FlagTag n -> Format.fprintf fmt "flagtag(%a)" pp_node n

(* {2 Views} *)

type 'a view = Obj.t

let view = function
  | B l -> Obj.repr (Atomic.get l)
  | T _ as l -> Obj.repr (Atomic.get (tw l))

let view_eq (a : 'a view) (b : 'a view) = a == b
let v_null : 'a view = Obj.repr 0
let v_is_null (v : 'a view) = v == Obj.repr Null
let v_is_poison (v : 'a view) = v == Obj.repr Poison
let v_is_word (v : 'a view) = Obj.is_int v

let v_addr (v : 'a view) = (Obj.obj v : int) land lnot 7

let v_has_target (v : 'a view) =
  if Obj.is_int v then (Obj.obj v : int) >= 8 else true

let v_is_marked (v : 'a view) =
  if Obj.is_int v then
    let w : int = Obj.obj v in
    w >= 8 && w land 7 = b_mark
  else is_marked (Obj.obj v : _ state)

let v_is_flagged (v : 'a view) =
  if Obj.is_int v then
    let w : int = Obj.obj v in
    w >= 8 && w land b_flag <> 0
  else is_flagged (Obj.obj v : _ state)

let v_is_tagged (v : 'a view) =
  if Obj.is_int v then
    let w : int = Obj.obj v in
    w >= 8 && w land b_tag <> 0
  else is_tagged (Obj.obj v : _ state)

(* Strip mark/flag/tag, keep the target; Null/Poison unchanged.  On a
   word this is pure arithmetic; on a box it allocates the clean state
   (exactly what the boxed algorithms allocated before). *)
let v_clean (v : 'a view) : 'a view =
  if Obj.is_int v then
    let w : int = Obj.obj v in
    if w < 8 then v else Obj.repr (w land lnot 7)
  else Obj.repr (clean (Obj.obj v : _ state))

let v_mark (v : 'a view) : 'a view =
  if Obj.is_int v then
    let w : int = Obj.obj v in
    if w < 8 then v else Obj.repr ((w land lnot 7) lor b_mark)
  else
    match (Obj.obj v : _ state) with
    | Ptr n | Mark n | Flag n | Tag n | FlagTag n -> Obj.repr (Mark n)
    | (Null | Poison) as st -> Obj.repr st

let v_same (a : 'a view) (b : 'a view) =
  if a == b then true
  else if Obj.is_int a || Obj.is_int b then false
  else same (Obj.obj a : _ state) (Obj.obj b : _ state)

let state_target_exn (st : _ state) =
  match st with
  | Ptr n | Mark n | Flag n | Tag n | FlagTag n -> n
  | Null | Poison -> invalid_arg "Link.v_target: no target"

let v_node a (v : 'a view) =
  if Obj.is_int v then begin
    let w : int = Obj.obj v in
    if w >= 8 then deref a ((w lsr 3) - 1)
    else invalid_arg "Link.v_target: no target"
  end
  else state_target_exn (Obj.obj v : _ state)

let v_target_exn l (v : 'a view) =
  if Obj.is_int v then begin
    let w : int = Obj.obj v in
    if w >= 8 then
      match l with
      | T { arena; _ } -> deref arena ((w lsr 3) - 1)
      | B _ -> invalid_arg "Link.v_target_exn: word view on boxed link"
    else invalid_arg "Link.v_target: no target"
  end
  else state_target_exn (Obj.obj v : _ state)

let v_node_in ao (v : 'a view) =
  if Obj.is_int v then begin
    let w : int = Obj.obj v in
    if w >= 8 then
      match ao with
      | Some a -> deref a ((w lsr 3) - 1)
      | None -> invalid_arg "Link.v_node_in: word view without arena"
    else invalid_arg "Link.v_target: no target"
  end
  else state_target_exn (Obj.obj v : _ state)

let v_ptr_in a (n : 'a) : 'a view =
  if a.use_tagged then Obj.repr (word_of a n b_clean) else Obj.repr (Ptr n)

let v_of_state_in ao (st : 'a state) : 'a view =
  match ao with
  | Some a when a.use_tagged -> Obj.repr (encode a st)
  | Some _ | None -> Obj.repr st

let v_state_in ao (v : 'a view) : 'a state =
  if Obj.is_int v then begin
    let w : int = Obj.obj v in
    if w < 8 then if w = w_null then Null else Poison
    else
      match ao with
      | Some a -> decode a w
      | None -> invalid_arg "Link.v_state_in: word view without arena"
  end
  else (Obj.obj v : _ state)

let v_state l (v : 'a view) : 'a state =
  if Obj.is_int v then begin
    let w : int = Obj.obj v in
    if w < 8 then if w = w_null then Null else Poison
    else
      match l with
      | T { arena; _ } -> decode arena w
      | B _ -> invalid_arg "Link.v_state: word view on boxed link"
  end
  else (Obj.obj v : _ state)

(* Encode [v] for writing into link [l], converting between
   representations when the view came from the other kind of link. *)
let repr_for l (v : 'a view) : Obj.t =
  match l with
  | B _ ->
      if Obj.is_int v then begin
        let w : int = Obj.obj v in
        if w = w_null then Obj.repr Null
        else if w = w_poison then Obj.repr Poison
        else invalid_arg "Link: word view written to boxed link"
      end
      else v
  | T { arena; _ } ->
      if Obj.is_int v then v else Obj.repr (encode arena (Obj.obj v : _ state))

let set_v l (v : 'a view) =
  match l with
  | B b -> Atomic.set b (Obj.obj (repr_for l v))
  | T _ -> Atomic.set (tw l) (Obj.obj (repr_for l v))

let cas_v l (expected : 'a view) (desired : 'a view) =
  match l with
  | B b ->
      (* boxed views are the boxes themselves: physical CAS, exactly
         the historical semantics *)
      Atomic.compare_and_set b
        (Obj.obj (repr_for l expected))
        (Obj.obj (repr_for l desired))
  | T _ ->
      Atomic.compare_and_set (tw l)
        (Obj.obj (repr_for l expected))
        (Obj.obj (repr_for l desired))

let exchange_v l (v : 'a view) : 'a view =
  match l with
  | B b -> Obj.repr (Atomic.exchange b (Obj.obj (repr_for l v)))
  | T _ -> Obj.repr (Atomic.exchange (tw l) (Obj.obj (repr_for l v)))

let make_of_view a (v : 'a view) =
  if a.use_tagged then
    let w =
      if Obj.is_int v then (Obj.obj v : int)
      else encode a (Obj.obj v : _ state)
    in
    T { word = w; arena = a }
  else B (Atomic.make (v_state_in (Some a) v))
