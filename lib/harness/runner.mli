(** Multi-domain throughput engine.

    Spawns worker domains, lines them up on a barrier, lets them run for
    a fixed wall-clock window, then stops them and aggregates operation
    counts.  The main thread can sample observables (live objects,
    unreclaimed counts) while the workers run — that is how the
    memory-footprint experiment of §5 is measured. *)

type result = {
  threads : int;
  elapsed : float; (** actual wall-clock seconds of the measured window *)
  total_ops : int;
  mops : float; (** million operations per second, all threads *)
}

val run :
  threads:int ->
  duration:float ->
  ?sample_every:float ->
  ?sampler:(unit -> unit) ->
  worker:(i:int -> tid:int -> stop:(unit -> bool) -> int) ->
  unit ->
  result
(** [run ~threads ~duration ~worker ()] runs [worker] on [threads]
    domains for [duration] seconds.  Each worker receives its spawn
    index, its registry tid, and a cheap [stop] predicate it must poll;
    it returns its operation count.  [stop] returns [false] on its first
    call, so a worker that polls before each operation records at least
    one.  [sampler], if given, is invoked from the coordinating thread
    every [sample_every] seconds (default 0.05) during the window, and
    once more after the workers have stopped. *)

val time : (unit -> 'a) -> float * 'a
(** Wall-clock a thunk. *)
