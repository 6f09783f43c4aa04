(* The load generator: one process, one thread, one select loop over the
   daemon's stdin and stdout pipes. *)

let now = Obs.Clock.now_s

type daemon = {
  pid : int;
  req : Unix.file_descr;  (** the daemon's stdin *)
  resp : Unix.file_descr;  (** the daemon's stdout *)
  inbox : Buffer.t;  (** bytes of the response line being read *)
  lines : string Queue.t;  (** complete response lines not yet taken *)
  chunk : Bytes.t;
  mutable eof : bool;
}

(* Daemons not yet stopped; closing their pipes at exit makes them end. *)
let live = ref []

let spawn exe args =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) req_r resp_w
      Unix.stderr
  in
  Unix.close req_r;
  Unix.close resp_w;
  Unix.set_nonblock req_w;
  Unix.set_nonblock resp_r;
  let d =
    {
      pid;
      req = req_w;
      resp = resp_r;
      inbox = Buffer.create 65536;
      lines = Queue.create ();
      chunk = Bytes.create 65536;
      eof = false;
    }
  in
  live := d :: !live;
  d

let take_line d = Queue.take_opt d.lines

(* Read what the daemon has written; every newline completes a line. *)
let fill d =
  match Unix.read d.resp d.chunk 0 (Bytes.length d.chunk) with
  | 0 -> d.eof <- true
  | n ->
      let rec split from =
        match Bytes.index_from_opt d.chunk from '\n' with
        | Some i when i < n ->
            Buffer.add_subbytes d.inbox d.chunk from (i - from);
            Queue.push (Buffer.contents d.inbox) d.lines;
            Buffer.clear d.inbox;
            split (i + 1)
        | _ -> Buffer.add_subbytes d.inbox d.chunk from (n - from)
      in
      split 0
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

let select r w timeout =
  match Unix.select r w [] timeout with
  | r, w, _ -> (r, w)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])

(* Bytes of [s] from [off] written without blocking. *)
let write_some d s off =
  match
    Unix.write_substring d.req s off (String.length s - off)
  with
  | n -> off + n
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> off

(* Write one request line and wait for its answer line; [None] if the
   daemon closed its output first. *)
let roundtrip d line =
  let s = line ^ "\n" in
  let off = ref 0 in
  let rec go () =
    match take_line d with
    | Some l when !off >= String.length s -> Some l
    | _ when d.eof -> None
    | _ ->
        let want_w = if !off < String.length s then [ d.req ] else [] in
        let r, w = select [ d.resp ] want_w (-1.) in
        if w <> [] then off := write_some d s !off;
        if r <> [] then fill d;
        go ()
  in
  go ()

let close_pipes d =
  (try Unix.close d.req with Unix.Unix_error _ -> ());
  try Unix.close d.resp with Unix.Unix_error _ -> ()

(* Ask the daemon to stop, then reap it. A daemon that ignores the
   request still exits on end of input once the pipes close. *)
let stop d =
  ignore (roundtrip d {|{"op":"shutdown"}|});
  close_pipes d;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun x -> x != d) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          close_pipes d;
          ignore (Unix.waitpid [] d.pid))
        !live)

(* The daemon's peak resident set, in MiB. *)
let peak_rss_mb d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  let rec find () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ---- the measured phase ---- *)

type sample = {
  id : int;
  spec : Spec.t;
  line : string;
  start : float;  (** when the first byte was written *)
  mutable latency : float;  (** seconds; [nan] while unanswered *)
  mutable response : string option;
}

type phase = { samples : sample array; wall : float }

(* Drive the daemon closed-loop: write a request, read its answer, write
   the next, cycling through [requests] until [seconds] have passed. The
   last request started in time is answered before the phase ends. *)
let measure d (requests : Spec.t array) ~seconds ~first_id =
  let t0 = now () in
  let rec go i acc =
    let t = now () in
    if t -. t0 >= seconds || d.eof then List.rev acc
    else begin
      let spec = requests.(i mod Array.length requests) in
      let id = first_id + i in
      let line = Spec.line ~id spec in
      let s =
        { id; spec; line; start = now (); latency = nan; response = None }
      in
      (match roundtrip d line with
      | Some l ->
          s.latency <- now () -. s.start;
          s.response <- Some l
      | None -> ());
      go (i + 1) (s :: acc)
    end
  in
  let samples = Array.of_list (go 0 []) in
  { samples; wall = now () -. t0 }
