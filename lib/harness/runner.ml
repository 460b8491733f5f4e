open Atomicx

type result = {
  threads : int;
  elapsed : float;
  total_ops : int;
  mops : float;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let run ~threads ~duration ?(sample_every = 0.05) ?sampler ~worker () =
  let stop = Atomic.make false in
  let barrier = Barrier.create (threads + 1) in
  let doms =
    List.init threads (fun i ->
        Domain.spawn (fun () ->
            Registry.with_tid (fun tid ->
                Barrier.wait barrier;
                (* The first poll always says "go on", so a worker the
                   scheduler starts after a short window closed still
                   records an operation. *)
                let polled = ref false in
                let stop () =
                  if !polled then Atomic.get stop
                  else begin
                    polled := true;
                    false
                  end
                in
                worker ~i ~tid ~stop)))
  in
  Barrier.wait barrier;
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. duration in
  let rec wait () =
    let now = Unix.gettimeofday () in
    if now < deadline then begin
      (match sampler with Some f -> f () | None -> ());
      Thread.delay (min sample_every (deadline -. now));
      wait ()
    end
  in
  wait ();
  Atomic.set stop true;
  let elapsed = Unix.gettimeofday () -. t0 in
  let total_ops = List.fold_left (fun acc d -> acc + Domain.join d) 0 doms in
  (* a last sample once the workers have stopped: a window shorter than
     [sample_every] is still observed after its operations ran *)
  (match sampler with Some f -> f () | None -> ());
  {
    threads;
    elapsed;
    total_ops;
    mops = float_of_int total_ops /. elapsed /. 1e6;
  }
