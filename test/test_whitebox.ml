(* White-box tests: drive the PTP handover machinery and the OrcGC
   hazard-index allocator through exact scenarios by manipulating
   per-thread slots directly (the scheme APIs take explicit [~tid], so a
   single test thread can stage multi-thread configurations
   deterministically). *)

open Util
open Atomicx

type tnode = { hdr : Memdom.Hdr.t; mutable value : int }

module TN = struct
  type t = tnode

  let hdr n = n.hdr
end

module Ptp = Orc_core.Ptp.Make (TN)

let mk alloc v = { hdr = Memdom.Alloc.hdr alloc (); value = v }

(* Algorithm 2's defining behaviour: a retired-but-protected object is
   *passed forward* through the protecting slots in scan order, and
   freed the moment the last protection disappears. *)
(* These tests stage slots for tids the suite never registers (e.g. 5,
   7).  The handover scan only covers [0, Registry.registered ()), so
   reserve the watermark explicitly rather than relying on earlier
   suites having registered enough domains. *)
let reserve_staged_tids () = Registry.reserve 8

let test_ptp_passes_the_pointer_forward () =
  reserve_staged_tids ();
  let alloc = Memdom.Alloc.create "ptp-wb" in
  let s = Ptp.create ~max_hps:4 alloc in
  let n = mk alloc 1 in
  (* protections in two distinct "threads" *)
  Ptp.protect_raw s ~tid:2 ~idx:1 (Some n);
  Ptp.protect_raw s ~tid:5 ~idx:0 (Some n);
  Ptp.retire s ~tid:0 n;
  check_bool "parked, not freed" false (Memdom.Hdr.is_freed n.hdr);
  check_int "pending" 1 (Ptp.unreclaimed s);
  (* drop the first protection: clear drains the handover and pushes the
     object forward to the remaining protector *)
  Ptp.clear s ~tid:2 ~idx:1;
  check_bool "still parked at the later protector" false
    (Memdom.Hdr.is_freed n.hdr);
  check_int "still pending" 1 (Ptp.unreclaimed s);
  (* drop the last protection: now it must be freed *)
  Ptp.clear s ~tid:5 ~idx:0;
  check_bool "freed at last clear" true (Memdom.Hdr.is_freed n.hdr);
  check_int "nothing pending" 0 (Ptp.unreclaimed s);
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* The handover slot holds at most one object: retiring a second object
   protected by the same slot evicts the first, which continues its scan
   and, with no other protection, is freed. *)
let test_ptp_handover_eviction () =
  reserve_staged_tids ();
  let alloc = Memdom.Alloc.create "ptp-wb" in
  let s = Ptp.create ~max_hps:4 alloc in
  let a = mk alloc 1 and b = mk alloc 2 in
  Ptp.protect_raw s ~tid:3 ~idx:2 (Some a);
  Ptp.retire s ~tid:0 a;
  check_bool "a parked" false (Memdom.Hdr.is_freed a.hdr);
  (* repoint the hazard to b, then retire b: b parks, evicting a, and a
     (no longer protected) is freed by the continuing scan *)
  Ptp.protect_raw s ~tid:3 ~idx:2 (Some b);
  Ptp.retire s ~tid:0 b;
  check_bool "a freed by eviction" true (Memdom.Hdr.is_freed a.hdr);
  check_bool "b parked" false (Memdom.Hdr.is_freed b.hdr);
  check_int "one pending" 1 (Ptp.unreclaimed s);
  Ptp.clear s ~tid:3 ~idx:2;
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* Linear-bound saturation: fill every slot of several threads with
   protected retired objects — pending equals the protected population,
   and one more unprotected retire still frees immediately. *)
let test_ptp_bound_saturation () =
  reserve_staged_tids ();
  let alloc = Memdom.Alloc.create "ptp-wb" in
  let hps = 3 in
  let s = Ptp.create ~max_hps:hps alloc in
  let tids = [ 1; 4; 7 ] in
  let nodes =
    List.concat_map
      (fun tid ->
        List.init hps (fun idx ->
            let n = mk alloc ((tid * 10) + idx) in
            Ptp.protect_raw s ~tid ~idx (Some n);
            Ptp.retire s ~tid:0 n;
            n))
      tids
  in
  check_int "every protected object parked"
    (List.length nodes)
    (Ptp.unreclaimed s);
  let extra = mk alloc 999 in
  Ptp.retire s ~tid:0 extra;
  check_bool "unprotected retire frees through a full park" true
    (Memdom.Hdr.is_freed extra.hdr);
  List.iter (fun tid -> Ptp.end_op s ~tid) tids;
  check_int "all reclaimed after clears" 0 (Ptp.unreclaimed s);
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* Pass-the-buck's liberator can hand a value to a guard after the
   guard's owner already drained its handoff slot (its [clear] ran
   first, or it exited and quarantine ran), stranding the value where
   no [clear] will look again.  [flush] must still free it. *)
module Ptb = Reclaim.Ptb.Make (TN)

let test_ptb_flush_drains_stranded_handoff () =
  reserve_staged_tids ();
  let alloc = Memdom.Alloc.create "ptb-wb" in
  let s = Ptb.create ~max_hps:4 alloc in
  let n = mk alloc 1 in
  Ptb.protect_raw s ~tid:5 ~idx:0 (Some n);
  Ptb.retire s ~tid:0 n;
  Ptb.flush s (* liberates: n is handed to tid 5's guard *);
  check_bool "trapped, not freed" false (Memdom.Hdr.is_freed n.hdr);
  (* the guard comes down with no [clear] after the hand *)
  Ptb.protect_raw s ~tid:5 ~idx:0 None;
  Ptb.flush s;
  check_bool "freed by flush" true (Memdom.Hdr.is_freed n.hdr);
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* ------------------------------------------------------------------ *)
(* OrcGC hazard-index management *)

type onode = { hdr : Memdom.Hdr.t; next : onode Link.t }

module O = Orc_core.Orc.Make (struct
  type t = onode

  let hdr n = n.hdr
  let iter_links n f = f n.next
end)

let test_orc_index_exhaustion_raises () =
  let alloc = Memdom.Alloc.create "orc-wb" in
  let o = O.create alloc in
  O.with_guard o (fun g ->
      Alcotest.check_raises "more handles than slots"
        Orc_core.Orc.Out_of_hazard_indexes (fun () ->
          for _ = 1 to Orc_core.Orc.max_haz + 1 do
            ignore (O.ptr g)
          done))

let test_orc_indexes_recycle_across_guards () =
  let alloc = Memdom.Alloc.create "orc-wb" in
  let o = O.create alloc in
  (* many guards each taking many handles: if indexes leaked, this would
     exhaust the 64-slot array after two iterations *)
  for _ = 1 to 100 do
    O.with_guard o (fun g ->
        for _ = 1 to 40 do
          ignore (O.ptr g)
        done)
  done;
  check_bool "indexes recycled" true true

let test_orc_stats_counters () =
  let alloc = Memdom.Alloc.create "orc-wb" in
  let o = O.create alloc in
  let root = Link.make Link.Null in
  let mk hdr = { hdr; next = Link.make Link.Null } in
  (* build a chain of 100, then drop it: cascades must show up *)
  O.with_guard o (fun g ->
      let p = O.ptr g and q = O.ptr g in
      for _ = 1 to 100 do
        O.load g root q;
        let n = O.alloc_node_into g p mk in
        (match O.Ptr.state q with
        | Link.Null -> ()
        | st -> O.store g n.next st);
        O.store g root (Link.Ptr n)
      done);
  O.with_guard o (fun g -> O.store g root Link.Null);
  let st = O.stats o in
  check_bool "retires counted" true (st.O.retires >= 100);
  check_bool "cascade drained recursively" true (st.O.cascades >= 90);
  check_int "all reclaimed" 0 (Memdom.Alloc.live alloc);
  (* a pinned unlink must count a handover *)
  O.with_guard o (fun g ->
      let p = O.alloc_node g mk in
      O.store g root (O.Ptr.state p);
      let h = O.ptr g in
      O.load g root h;
      O.store g root Link.Null (* p pinned by h: parked via handover *));
  let st2 = O.stats o in
  check_bool "handover counted" true (st2.O.handovers > st.O.handovers);
  check_int "reclaimed after guard exit" 0 (Memdom.Alloc.live alloc)

(* The acceptance check for the bounded-scan rework: tryHandover's cost
   per invocation is [registered () * hazard_watermark] slots, not
   [max_threads * max_haz].  The counters are read after the run, and
   both [registered] and the watermark are monotone, so the product is a
   sound upper bound on every individual scan. *)
let test_orc_scan_cost_bounded () =
  let alloc = Memdom.Alloc.create "orc-wb" in
  let o = O.create alloc in
  let root = Link.make Link.Null in
  let mk hdr = { hdr; next = Link.make Link.Null } in
  O.with_guard o (fun g ->
      let p = O.ptr g and q = O.ptr g in
      for _ = 1 to 200 do
        O.load g root q;
        let n = O.alloc_node_into g p mk in
        (match O.Ptr.state q with
        | Link.Null -> ()
        | st -> O.store g n.next st);
        O.store g root (Link.Ptr n)
      done);
  O.with_guard o (fun g -> O.store g root Link.Null);
  let st = O.stats o in
  check_bool "retires drove scans" true (st.O.scans >= 200);
  let per_scan_bound = Registry.registered () * O.hazard_watermark o in
  check_bool
    (Printf.sprintf "scan slots %d <= scans %d * registered*watermark %d"
       st.O.scan_slots st.O.scans per_scan_bound)
    true
    (st.O.scan_slots <= st.O.scans * per_scan_bound);
  (* the old code visited max_threads rows per scan regardless of how
     many threads exist; the new cost must sit far below that *)
  check_bool
    (Printf.sprintf "scan slots %d < scans %d * max_threads %d"
       st.O.scan_slots st.O.scans Registry.max_threads)
    true
    (st.O.scan_slots < st.O.scans * Registry.max_threads);
  check_int "all reclaimed" 0 (Memdom.Alloc.live alloc)

(* ------------------------------------------------------------------ *)
(* Word layout: the lifecycle word and the tagged-link word live in
   field 0 of their owning blocks *)

let field0 x : Obj.t = Obj.field (Obj.repr x) 0

(* Arenas snapshot [Link.tagged] at creation; the address-plane tests
   need tagged links whatever the suite-wide ablation setting. *)
let with_tagged f =
  let saved = !Link.tagged in
  Link.tagged := true;
  Fun.protect ~finally:(fun () -> Link.tagged := saved) f

(* Every transition, in both [Hdr.packed] settings, must land in field
   0 with the exact (generation, lifecycle) encoding of a reference
   count kept here, and must leave the named fields alone.  Reordering
   the record (anything other than [state_word] at field 0) makes the
   transitions clobber that field or read a foreign one. *)
let test_hdr_word_is_field_0 () =
  List.iter
    (fun packed ->
      let saved = !Memdom.Hdr.packed in
      Memdom.Hdr.packed := packed;
      Fun.protect ~finally:(fun () -> Memdom.Hdr.packed := saved) (fun () ->
          let module H = Memdom.Hdr in
          let h = H.make ~uid:12345 ~label:"layout" ~strict:true ~birth_era:3 in
          let gen = ref 0 and uid = ref 12345 in
          let expect what bits =
            let name = Printf.sprintf "%s (packed=%b)" what packed in
            check_int (name ^ ": field 0") ((!gen lsl 2) lor bits)
              (Obj.obj (field0 h) : int);
            check_int (name ^ ": generation") !gen (H.generation h);
            check_int (name ^ ": uid untouched") !uid h.H.uid;
            check_int (name ^ ": orc untouched") H.orc_initial
              (Atomic.get h.H.orc);
            check_int (name ^ ": birth era untouched") 3 (H.birth_era h)
          in
          let step what f bits =
            f ();
            incr gen;
            expect what bits
          in
          expect "made" 0;
          H.check_access h;
          step "retired" (fun () -> H.mark_retired h) 1;
          Alcotest.check_raises "double retire" (H.Double_retire "layout#12345")
            (fun () -> H.mark_retired h);
          expect "double retire undone" 1;
          step "unretired" (fun () -> H.unretire h) 0;
          H.unretire h (* lost race: a no-op *);
          expect "second unretire" 0;
          step "retired again" (fun () -> H.mark_retired h) 1;
          step "freed" (fun () -> H.mark_freed h) 2;
          check_bool "freed" true (H.is_freed h);
          Alcotest.check_raises "access after free"
            (H.Use_after_free "layout#12345") (fun () -> H.check_access h);
          Alcotest.check_raises "retire after free"
            (H.Use_after_free "layout#12345") (fun () -> H.mark_retired h);
          expect "retire after free undone" 2;
          uid := 777;
          step "recycled" (fun () -> H.recycle h ~uid:777 ~birth_era:3) 0;
          H.check_access h))
    [ true; false ]

(* A tagged link's word is field 0 of the link block: [view] reads it,
   and every write lands there with the exact word encoding. *)
let test_link_word_is_field_0 () =
  with_tagged (fun () ->
      let arena = Memdom.Handle.arena ~hdr:(fun (n : onode) -> n.hdr) () in
      let alloc = Memdom.Alloc.create "layout" in
      let node () =
        { hdr = Memdom.Alloc.hdr alloc (); next = Link.make Link.Null }
      in
      let x = node () and y = node () in
      let l = Link.make_in arena (Link.Ptr x) in
      let addr n = (n.hdr.Memdom.Hdr.slot + 1) lsl 3 in
      let expect what w =
        check_bool (what ^ ": field 0 is an int") true (Obj.is_int (field0 l));
        check_int (what ^ ": field 0") w (Obj.obj (field0 l) : int);
        check_bool (what ^ ": view is field 0") true
          (Obj.repr (Link.view l) == field0 l)
      in
      expect "made" (addr x);
      Link.set l (Link.Mark x);
      expect "set mark" (addr x lor 1);
      check_bool "cas" true (Link.cas l (Link.Mark x) (Link.Ptr y));
      expect "cas" (addr y);
      ignore (Link.exchange l Link.Null);
      expect "exchange" 0;
      Link.set_v l (Link.v_ptr_in arena x);
      expect "set_v" (addr x);
      check_bool "cas_v" true
        (Link.cas_v l (Link.v_ptr_in arena x) (Link.v_mark (Link.view l)));
      expect "cas_v" (addr x lor 1);
      ignore (Link.exchange_v l (Link.v_ptr_in arena y));
      expect "exchange_v" (addr y);
      check_int "v_addr is the clean word" (addr y)
        (Link.v_addr (Link.view l));
      let l' = Link.make_of_view arena (Link.v_mark (Link.view l)) in
      check_int "make_of_view" (addr y lor 1) (Obj.obj (field0 l') : int))

(* ------------------------------------------------------------------ *)
(* Handle rotation ([Ptr.swap]) and address publication on both OrcGC
   backends *)

(* The slice of the core API these tests drive; both [Orc.Make] and
   [Orc_hp.Make] satisfy it. *)
module type CORE = sig
  type t
  type guard

  module Ptr : sig
    type t

    val node_exn : t -> onode
    val is_null : t -> bool
    val swap : t -> t -> unit
  end

  val create :
    ?max_hps:int -> ?sink:Obs.Sink.t -> ?arena:onode Link.arena ->
    Memdom.Alloc.t -> t

  val with_guard : t -> (guard -> 'a) -> 'a
  val ptr : guard -> Ptr.t
  val load : guard -> onode Link.t -> Ptr.t -> unit
  val alloc_node_into : guard -> Ptr.t -> (Memdom.Hdr.t -> onode) -> onode
  val new_link : guard -> onode Link.state -> onode Link.t
  val store : guard -> onode Link.t -> onode Link.state -> unit
  val hazard_watermark : t -> int
  val unreclaimed : t -> int
  val flush : t -> unit
end

module Ohp = Orc_core.Orc_hp.Make (struct
  type t = onode

  let hdr n = n.hdr
  let iter_links n f = f n.next
end)

(* [eager]: the backend frees an object the moment its last protection
   goes (OrcGC's pass-the-pointer drain at guard exit); the HP backend
   frees at its next scan, forced here by [flush]. *)
module Core_tests (C : CORE) (B : sig
  val name : string
  val eager : bool
  val handovers : C.t -> int
end) =
struct
  let fresh () =
    let alloc = Memdom.Alloc.create ("swap-" ^ B.name) in
    let arena = Memdom.Handle.arena ~hdr:(fun (n : onode) -> n.hdr) () in
    (alloc, C.create ~arena alloc)

  let mk g hdr = { hdr; next = C.new_link g Link.Null }

  let settle o = if not B.eager then C.flush o

  (* Retire a stream of never-linked nodes through [scratch]: on the HP
     backend the retired list crosses its threshold and scans. *)
  let churn alloc g scratch =
    for _ = 1 to 200 do
      ignore (C.alloc_node_into g scratch (mk g))
    done;
    check_bool "churn reclaimed (scans ran)" true
      (Memdom.Alloc.live alloc < 100)

  let link_fresh o root =
    C.with_guard o (fun g ->
        let n = C.alloc_node_into g (C.ptr g) (mk g) in
        C.store g root (Link.Ptr n);
        n)

  (* [n], linked only from [root], is loaded into a handle — on a tagged
     link that publishes [n]'s arena address and nothing else — and then
     loses its last hard link.  The retire scan must find the address:
     [n] is handed over (HP: kept on the retired list through forced
     scans), not freed, and its arena slot stays taken until the guard
     exits. *)
  let check_address_pins alloc o root n =
    let slot = n.hdr.Memdom.Hdr.slot in
    check_bool "registered in the arena" true (slot >= 0);
    let handovers_before = B.handovers o in
    C.with_guard o (fun g ->
        let a = C.ptr g and scratch = C.ptr g in
        C.load g root a;
        check_bool "loaded the node" true (C.Ptr.node_exn a == n);
        C.store g root Link.Null;
        churn alloc g scratch;
        check_bool "not freed while its address is published" false
          (Memdom.Hdr.is_freed n.hdr);
        check_int "arena slot not released" slot n.hdr.Memdom.Hdr.slot;
        if B.eager then
          check_bool "handed over" true (B.handovers o > handovers_before));
    settle o;
    check_bool "freed after guard exit" true (Memdom.Hdr.is_freed n.hdr);
    check_int "arena slot released" (-1) n.hdr.Memdom.Hdr.slot

  let fresh_tagged () = with_tagged fresh

  let test_address_pins_node () =
    let alloc, o = fresh_tagged () in
    let root = C.with_guard o (fun g -> C.new_link g Link.Null) in
    check_address_pins alloc o root (link_fresh o root);
    check_int "no leak" 0 (Memdom.Alloc.live alloc)

  (* X is freed and its arena slot re-issued to Y, so Y's address is
     X's old one.  Loading Y publishes that address, which must protect
     Y, the slot's current occupant. *)
  let test_reused_slot_protects_new_occupant () =
    let alloc, o = fresh_tagged () in
    let root = C.with_guard o (fun g -> C.new_link g Link.Null) in
    let x = link_fresh o root in
    let slot = x.hdr.Memdom.Hdr.slot in
    C.with_guard o (fun g -> C.store g root Link.Null);
    settle o;
    check_bool "X freed" true (Memdom.Hdr.is_freed x.hdr);
    let y = link_fresh o root in
    check_int "Y got X's slot" slot y.hdr.Memdom.Hdr.slot;
    check_address_pins alloc o root y;
    check_int "no leak" 0 (Memdom.Alloc.live alloc)

  (* Swap keeps each protection in place: X loaded into [a] and Y into
     [b], then [swap a b].  Reloading [a] must drop Y's protection, not
     X's, so X survives losing its last hard link — handed over (or, on
     HP, kept on the retired list through forced scans) until the guard
     exits, and freed after. *)
  let test_swap_keeps_protection () =
    let alloc, o = fresh () in
    let rx, ry, rnull, x, y =
      C.with_guard o (fun g ->
          let rx = C.new_link g Link.Null and ry = C.new_link g Link.Null in
          let rnull = C.new_link g Link.Null in
          let h = C.ptr g in
          let x = C.alloc_node_into g h (mk g) in
          C.store g rx (Link.Ptr x);
          let y = C.alloc_node_into g h (mk g) in
          C.store g ry (Link.Ptr y);
          (rx, ry, rnull, x, y))
    in
    let handovers_before = B.handovers o in
    C.with_guard o (fun g ->
        let a = C.ptr g and b = C.ptr g and scratch = C.ptr g in
        C.load g rx a;
        C.load g ry b;
        C.Ptr.swap a b;
        check_bool "a now holds Y" true (C.Ptr.node_exn a == y);
        check_bool "b now holds X" true (C.Ptr.node_exn b == x);
        C.load g rnull a;
        check_bool "a reloaded to null" true (C.Ptr.is_null a);
        C.store g rx Link.Null;
        (* the HP backend scans while X is still protected by [b] *)
        churn alloc g scratch;
        check_bool "X not freed while b protects it" false
          (Memdom.Hdr.is_freed x.hdr);
        Memdom.Hdr.check_access x.hdr;
        check_bool "X pending" true (C.unreclaimed o >= 1);
        if B.eager then
          check_bool "X was handed over" true
            (B.handovers o > handovers_before));
    settle o;
    check_bool "X freed after guard exit" true (Memdom.Hdr.is_freed x.hdr);
    check_bool "Y still alive" false (Memdom.Hdr.is_freed y.hdr);
    C.with_guard o (fun g -> C.store g ry Link.Null);
    settle o;
    check_int "no leak" 0 (Memdom.Alloc.live alloc)

  (* A rotated walk keeps to its three hazard indexes: after the first
     hop the watermark never moves, and every handle is released
     cleanly at exit (the chain is freed as soon as it is dropped). *)
  let test_rotated_walk_watermark () =
    let alloc, o = fresh () in
    let len = 60 in
    let root, nodes =
      C.with_guard o (fun g ->
          let root = C.new_link g Link.Null in
          let p = C.ptr g and q = C.ptr g in
          let nodes = ref [] in
          for _ = 1 to len do
            C.load g root q;
            let n = C.alloc_node_into g p (mk g) in
            if not (C.Ptr.is_null q) then
              C.store g n.next (Link.Ptr (C.Ptr.node_exn q));
            C.store g root (Link.Ptr n);
            nodes := n :: !nodes
          done;
          (root, List.rev !nodes))
    in
    let nodes = List.rev nodes (* head first *) in
    let hops, wm_first, wm_last =
      C.with_guard o (fun g ->
          let prev = C.ptr g and curr = C.ptr g and next = C.ptr g in
          C.load g root curr;
          let rec walk hops wm_first expected =
            match expected with
            | [] ->
                check_bool "walk ends on null" true (C.Ptr.is_null curr);
                (hops, wm_first, C.hazard_watermark o)
            | n :: rest ->
                check_bool "hop reaches the next node" true
                  (C.Ptr.node_exn curr == n);
                C.load g n.next next;
                C.Ptr.swap prev curr;
                C.Ptr.swap curr next;
                let wm_first =
                  if hops = 0 then C.hazard_watermark o else wm_first
                in
                walk (hops + 1) wm_first rest
          in
          walk 0 0 nodes)
    in
    check_int "hops" len hops;
    check_int "watermark unchanged after the first hop" wm_first wm_last;
    check_bool "watermark within scratch + 3 handles" true (wm_last <= 4);
    C.with_guard o (fun g -> C.store g root Link.Null);
    if B.eager then
      check_int "chain freed on drop: no stale protection" 0
        (Memdom.Alloc.live alloc);
    settle o;
    check_int "no leak" 0 (Memdom.Alloc.live alloc)

  let cases =
    [
      Alcotest.test_case (B.name ^ " swap keeps protection") `Quick
        test_swap_keeps_protection;
      Alcotest.test_case (B.name ^ " rotated walk keeps the watermark") `Quick
        test_rotated_walk_watermark;
      Alcotest.test_case (B.name ^ " published address pins the node") `Quick
        test_address_pins_node;
      Alcotest.test_case (B.name ^ " reused slot protects its new occupant")
        `Quick test_reused_slot_protects_new_occupant;
    ]
end

module Core_orc =
  Core_tests
    (O)
    (struct
      let name = "orc"
      let eager = true
      let handovers o = (O.stats o).O.handovers
    end)

module Core_orc_hp =
  Core_tests
    (Ohp)
    (struct
      let name = "orc-hp"
      let eager = false
      let handovers _ = 0
    end)

(* ------------------------------------------------------------------ *)
(* Hdr lifecycle automaton vs a reference model *)

type model = MLive | MRetired | MFreed

let prop_hdr_matches_model =
  qtest ~count:200 "Hdr lifecycle = reference automaton"
    QCheck2.Gen.(list_size (int_range 1 30) (int_range 0 2))
    (fun ops ->
      let a = Memdom.Alloc.create "hdr-model" in
      let h = Memdom.Alloc.hdr a () in
      let model = ref MLive in
      List.for_all
        (fun op ->
          match op with
          | 0 -> (
              (* retire *)
              let expect_exn = !model <> MLive in
              match Memdom.Hdr.mark_retired h with
              | () ->
                  model := MRetired;
                  not expect_exn
              | exception (Memdom.Hdr.Double_retire _ | Memdom.Hdr.Use_after_free _)
                ->
                  expect_exn)
          | 1 -> (
              (* unretire *)
              let expect_exn = !model = MFreed in
              match Memdom.Hdr.unretire h with
              | () ->
                  if !model = MRetired then model := MLive;
                  not expect_exn
              | exception Memdom.Hdr.Use_after_free _ -> expect_exn)
          | _ -> (
              (* free *)
              let expect_exn = !model = MFreed in
              match Memdom.Alloc.free a h with
              | () ->
                  model := MFreed;
                  not expect_exn
              | exception Memdom.Hdr.Double_free _ -> expect_exn))
        ops)

let suite =
  [
    ( "whitebox",
      [
        Alcotest.test_case "ptp passes the pointer forward" `Quick
          test_ptp_passes_the_pointer_forward;
        Alcotest.test_case "ptp handover eviction" `Quick
          test_ptp_handover_eviction;
        Alcotest.test_case "ptp bound saturation" `Quick
          test_ptp_bound_saturation;
        Alcotest.test_case "ptb flush drains a stranded handoff" `Quick
          test_ptb_flush_drains_stranded_handoff;
        Alcotest.test_case "orc index exhaustion raises" `Quick
          test_orc_index_exhaustion_raises;
        Alcotest.test_case "orc indexes recycle across guards" `Quick
          test_orc_indexes_recycle_across_guards;
        Alcotest.test_case "orc stats counters" `Quick test_orc_stats_counters;
        Alcotest.test_case "orc scan cost bounded by registered threads"
          `Quick test_orc_scan_cost_bounded;
        prop_hdr_matches_model;
        Alcotest.test_case "header lifecycle word is field 0" `Quick
          test_hdr_word_is_field_0;
        Alcotest.test_case "tagged link word is field 0" `Quick
          test_link_word_is_field_0;
      ]
      @ Core_orc.cases @ Core_orc_hp.cases );
  ]
