//! The benchmark's own load generator: one thread, at most two client
//! connections, built on `wire`'s public frame functions.
//!
//! It owns its sockets (non-blocking `std` streams multiplexed with
//! `ppoll`) instead of running as tasks on the replicas' worker pool, so a
//! busy replica event loop cannot delay the generator's clock. Every
//! request is timed from the moment it was *due*; a request is given up
//! [`GIVE_UP`] after that moment and counted as failed, and a run ends at
//! a fixed time whatever is still in flight.

use crate::workload::{is_hot, LoopKind, Spec, Stream};
use atlas_core::{ClientId, Command, Key, KvOp, Rifl, Value};
use atlas_runtime::wire::{decode_payload, encode_frame_into, ClientReply, ClientRequest, Hello};
use kvstore::Output;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// A request not fully answered this long after it was due is failed.
pub const GIVE_UP: Duration = Duration::from_secs(5);
/// Length of one tracing slice: in a traced run, request spans are
/// recorded in every other slice, so the untraced slices of the same run
/// give the throughput tracing is compared against.
pub const TRACE_SLICE: Duration = Duration::from_secs(1);

/// Readiness multiplexing for the generator's two sockets.
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_int, c_ulong, c_void};
    use std::time::Duration;

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Waits until one of `fds` is ready or `timeout` passes (nanosecond
    /// resolution, which plain `poll` lacks). Errors — `EINTR` in
    /// practice — read as "nothing ready"; the caller loops on its clock.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) {
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd records and `nfds` is its length; `ts` lives
        // across the call; a null signal mask is allowed and leaves the
        // mask unchanged.
        let rc = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if rc < 0 {
            for fd in fds {
                fd.revents = 0;
            }
        }
    }
}

/// One client connection: a non-blocking socket plus its frame buffers.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into frames.
    rbuf: Vec<u8>,
    /// Bytes a short write left behind.
    wbuf: Vec<u8>,
    scratch: Vec<u8>,
    /// False once the peer closed or reset the connection.
    pub open: bool,
}

impl Conn {
    /// Connects and identifies as `client`.
    pub fn connect(addr: SocketAddr, client: ClientId) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut conn = Self {
            stream,
            rbuf: Vec::with_capacity(64 << 10),
            wbuf: Vec::new(),
            scratch: Vec::new(),
            open: true,
        };
        encode_frame_into(&mut conn.scratch, &Hello::Client { client })?;
        conn.write_scratch()?;
        Ok(conn)
    }

    fn send_request(&mut self, cmds: Vec<Command>) -> io::Result<()> {
        encode_frame_into(&mut self.scratch, &ClientRequest::Submit { cmds })?;
        self.write_scratch()
    }

    /// Writes as much of the framed `scratch` as the socket takes; the
    /// rest waits in `wbuf` for [`Conn::flush`].
    fn write_scratch(&mut self) -> io::Result<()> {
        if self.wbuf.is_empty() {
            let n = match self.stream.write(&self.scratch) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => 0,
                Err(e) => return Err(e),
            };
            self.wbuf.extend_from_slice(&self.scratch[n..]);
        } else {
            self.wbuf.extend_from_slice(&self.scratch);
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads whatever the socket holds and hands every complete
    /// `Executed` reply to `on_reply`. Marks the connection closed on EOF
    /// or reset.
    fn pump(&mut self, mut on_reply: impl FnMut(Rifl, Vec<(Key, Output)>)) -> io::Result<()> {
        let mut chunk = [0u8; 64 << 10];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.open = false;
                    break;
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.open = false;
                    break;
                }
            }
        }
        let mut at = 0;
        while self.rbuf.len() - at >= 4 {
            let len =
                u32::from_le_bytes(self.rbuf[at..at + 4].try_into().expect("4 bytes")) as usize;
            if len > atlas_runtime::wire::MAX_FRAME_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "oversize reply frame",
                ));
            }
            if self.rbuf.len() - at - 4 < len {
                break;
            }
            if let ClientReply::Executed { rifl, outputs } =
                decode_payload(&self.rbuf[at + 4..at + 4 + len])?
            {
                on_reply(rifl, outputs);
            }
            at += 4 + len;
        }
        self.rbuf.drain(..at);
        Ok(())
    }
}

/// The generator drives at most this many connections.
pub const MAX_CONNS: usize = 2;

/// Waits for readiness on the open connections, at most `timeout`. On the
/// generator's hot path, so nothing here allocates.
fn wait<'a>(conns: impl Iterator<Item = &'a Conn>, timeout: Duration) -> [bool; MAX_CONNS] {
    // A negative fd makes ppoll skip the entry.
    let mut fds = [(); MAX_CONNS].map(|()| sys::PollFd {
        fd: -1,
        events: 0,
        revents: 0,
    });
    let mut n = 0;
    for (fd, c) in fds.iter_mut().zip(conns) {
        if c.open {
            fd.fd = c.stream.as_raw_fd();
        }
        fd.events = sys::POLLIN | if c.wbuf.is_empty() { 0 } else { sys::POLLOUT };
        n += 1;
    }
    sys::wait(&mut fds[..n], timeout);
    fds.map(|fd| fd.revents != 0)
}

/// What the client knows about its own writes, for the output check.
#[derive(Debug, Default, Clone)]
pub struct Model {
    /// Last value issued per private key (program order).
    issued: HashMap<Key, Value>,
    /// Last acknowledged value per private key.
    pub acked: HashMap<Key, Value>,
    /// Values of writes that were sent but never acknowledged.
    pub maybe: HashMap<Key, Vec<Value>>,
}

impl Model {
    /// Records an acknowledged write made outside the measured loop (the
    /// preload).
    pub fn preloaded(&mut self, key: Key, value: Value) {
        self.issued.insert(key, value);
        self.acked.insert(key, value);
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Put(Key, Value),
    /// `None`: a hot key, whose value other clients also write.
    Get(Option<Option<Value>>),
}

#[derive(Debug)]
struct Outstanding {
    first_seq: u64,
    /// Bit i set: command i still unanswered.
    pending: u64,
    ops: Vec<Op>,
    due: Instant,
    sent: Instant,
    hot: bool,
    measured: bool,
}

impl Outstanding {
    /// Orders a reply's sequence number against this request's range.
    fn locate(&self, seq: u64) -> std::cmp::Ordering {
        if seq < self.first_seq {
            std::cmp::Ordering::Greater
        } else if seq >= self.first_seq + self.ops.len() as u64 {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Equal
        }
    }

    /// Writes that were sent but not acknowledged may or may not have
    /// been applied; the read-back accepts either.
    fn note_unacked_writes(&self, model: &mut Model) {
        for (i, op) in self.ops.iter().enumerate() {
            if let (Op::Put(key, value), 1) = (op, self.pending >> i & 1) {
                if !is_hot(*key) {
                    model.maybe.entry(*key).or_default().push(*value);
                }
            }
        }
    }
}

/// One client request of a traced slice.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpan {
    /// Connection index.
    pub conn: usize,
    /// First command sequence of the request (its identifier).
    pub first_seq: u64,
    /// Commands in the request.
    pub cmds: usize,
    /// When the request was due, ns since the generator's origin.
    pub due_ns: u64,
    /// When its frame was written.
    pub sent_ns: u64,
    /// When its last reply arrived; `None` for a request given up.
    pub done_ns: Option<u64>,
}

/// When the generator does what, all on one clock.
#[derive(Debug, Clone, Copy)]
pub struct Timeline {
    /// Origin of every `*_ns` the generator reports.
    pub origin: Instant,
    /// Load starts here (warm-up).
    pub start: Instant,
    /// Requests due from here on are measured.
    pub measure_start: Instant,
    /// Nothing is sent from here on.
    pub measure_end: Instant,
    /// Planned kill instant; the victim's schedule ends here.
    pub kill_at: Option<Instant>,
    /// Record request spans in every other [`TRACE_SLICE`].
    pub trace: bool,
    /// A request not fully answered this long after it was due is failed
    /// ([`GIVE_UP`] outside tests).
    pub give_up: Duration,
}

impl Timeline {
    /// Index of the [`TRACE_SLICE`]-long window of the measured interval
    /// that `t` falls in. Odd windows are the traced slices.
    fn window_of(&self, t: Instant) -> usize {
        let into = t.saturating_duration_since(self.measure_start);
        (into.as_nanos() / TRACE_SLICE.as_nanos()) as usize
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

/// Everything the generator measured.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Latency of every measured request, ns, ascending; failed ones at
    /// the give-up value.
    pub latencies_ns: Vec<u64>,
    /// How late each measured request left, ns after it was due.
    pub lateness_ns: Vec<u64>,
    /// Sum of the latencies of the measured requests sent to replicas that
    /// outlive the run, ns, and their number: the client-side mean that
    /// matches the survivors' stats planes.
    pub survivor_latency_ns: (u128, u64),
    /// Measured requests.
    pub requests: u64,
    /// Measured requests given up.
    pub failed: u64,
    /// Requests unanswered at the victim when it was killed: their
    /// connection died with the site, no survivor owed them a reply.
    pub lost_with_site: u64,
    /// Commands acknowledged inside the measured interval.
    pub acked_cmds: u64,
    /// The same per [`TRACE_SLICE`]-long window of the interval, by the
    /// time of the acknowledgement.
    pub window_acked: Vec<u64>,
    /// Request latencies, ns, per window of the interval, by due time.
    pub window_latencies_ns: Vec<Vec<u64>>,
    /// Replies that contradicted the client's own writes.
    pub wrong_outputs: u64,
    /// First reply, ns since origin, to a survivor's hot-key request that
    /// was due after the planned kill.
    pub service_resumed_ns: Option<u64>,
    /// Request spans of the traced slices.
    pub spans: Vec<RequestSpan>,
    /// Per client: what it wrote and what was acknowledged.
    pub models: Vec<Model>,
}

impl LoadResult {
    /// Books one measured request; `done` is its last reply, `None` if it
    /// was given up.
    fn finish(
        &mut self,
        t: &Timeline,
        conn: usize,
        survivor: bool,
        r: &Outstanding,
        done: Option<Instant>,
    ) {
        self.requests += 1;
        let latency = match done {
            Some(at) => at.saturating_duration_since(r.due),
            None => {
                self.failed += 1;
                t.give_up
            }
        };
        self.latencies_ns.push(latency.as_nanos() as u64);
        let window = t.window_of(r.due);
        if self.window_latencies_ns.len() <= window {
            self.window_latencies_ns.resize(window + 1, Vec::new());
        }
        self.window_latencies_ns[window].push(latency.as_nanos() as u64);
        if survivor {
            self.survivor_latency_ns.0 += latency.as_nanos();
            self.survivor_latency_ns.1 += 1;
        }
        let late = r.sent.saturating_duration_since(r.due);
        self.lateness_ns.push(late.as_nanos() as u64);
        if let (Some(at), Some(kill)) = (done, t.kill_at) {
            if survivor && r.hot && r.due >= kill {
                let at = t.ns(at);
                self.service_resumed_ns =
                    Some(self.service_resumed_ns.map_or(at, |first| first.min(at)));
            }
        }
        if t.trace && window % 2 == 1 {
            self.spans.push(RequestSpan {
                conn,
                first_seq: r.first_seq,
                cmds: r.ops.len(),
                due_ns: t.ns(r.due),
                sent_ns: t.ns(r.sent),
                done_ns: done.map(|at| t.ns(at)),
            });
        }
    }
}

struct Client {
    conn: Conn,
    stream: Stream,
    model: Model,
    outstanding: VecDeque<Outstanding>,
    next_due: Option<Instant>,
    /// Connected to the replica the timeline kills.
    victim: bool,
}

impl Client {
    /// Builds, books and sends the request that was due at `due`.
    fn send(&mut self, due: Instant, measured: bool, hot: Option<bool>) -> io::Result<()> {
        let cmds = self.stream.next_request(hot);
        let first_seq = cmds[0].rifl.seq;
        let mut hot = false;
        let ops = cmds
            .iter()
            .map(|cmd| {
                let (key, op) = cmd.ops().next().expect("single-key command");
                hot |= is_hot(*key);
                match op {
                    KvOp::Put(v) => {
                        if !is_hot(*key) {
                            self.model.issued.insert(*key, *v);
                        }
                        Op::Put(*key, *v)
                    }
                    _ if is_hot(*key) => Op::Get(None),
                    _ => Op::Get(Some(self.model.issued.get(key).copied())),
                }
            })
            .collect();
        let pending = u64::MAX >> (64 - cmds.len());
        self.conn.send_request(cmds)?;
        self.outstanding.push_back(Outstanding {
            first_seq,
            pending,
            ops,
            due,
            sent: Instant::now(),
            hot,
            measured,
        });
        Ok(())
    }

    /// The site this client talks to died: whatever it still owed is lost
    /// with it.
    fn site_died(&mut self, out: &mut LoadResult) {
        self.conn.open = false;
        self.next_due = None;
        for r in self.outstanding.drain(..) {
            out.lost_with_site += 1;
            r.note_unacked_writes(&mut self.model);
        }
    }
}

/// Replies already on the wire when the victim is killed get this long to
/// arrive before its unanswered requests are written off.
const KILL_GRACE: Duration = Duration::from_millis(100);

/// Drives `spec`'s load over `conns` along `timeline` and returns what it
/// measured, plus the connections and streams for the read-back.
/// `conns[i]` is connected to `spec.client_replicas[i]`; `streams[i]` and
/// `models[i]` are that client's stream (past its preload) and write model.
pub fn run_load(
    spec: &Spec,
    conns: Vec<Conn>,
    streams: Vec<Stream>,
    models: Vec<Model>,
    timeline: Timeline,
) -> io::Result<(LoadResult, Vec<Conn>, Vec<Stream>)> {
    assert!(
        conns.len() <= MAX_CONNS,
        "one generator thread, two connections"
    );
    assert!(
        (1..=64).contains(&spec.batch),
        "the pending mask holds 64 commands"
    );
    let period = match spec.loop_kind {
        LoopKind::Closed => None,
        LoopKind::Open { rate_per_client } => Some(Duration::from_secs(1) / rate_per_client),
    };
    let n = conns.len() as u32;
    let mut clients: Vec<Client> = conns
        .into_iter()
        .zip(streams)
        .zip(models)
        .enumerate()
        .map(|(i, ((conn, stream), model))| Client {
            conn,
            stream,
            model,
            outstanding: VecDeque::new(),
            // Open-loop clients interleave: client i starts i/n of a
            // period in.
            next_due: Some(timeline.start + period.map_or(Duration::ZERO, |p| p * i as u32 / n)),
            victim: spec
                .kill
                .is_some_and(|k| k.replica == spec.client_replicas[i]),
        })
        .collect();
    let mut out = LoadResult::default();

    loop {
        let now = Instant::now();
        let sending = now < timeline.measure_end;
        let mut wake = if sending {
            timeline.measure_end
        } else {
            now + timeline.give_up
        };

        for (ci, c) in clients.iter_mut().enumerate() {
            let dies_at = timeline.kill_at.filter(|_| c.victim);
            let stop_at =
                dies_at.map_or(timeline.measure_end, |kill| kill.min(timeline.measure_end));

            // 1. Send what is due.
            while let Some(due) = c.next_due {
                if due >= stop_at {
                    c.next_due = None;
                } else if due <= now && c.conn.open {
                    // The fault schedule decides which of the victim's
                    // last commands conflict (see `workload::Kill`).
                    let hot = spec.kill.zip(dies_at).and_then(|(plan, kill)| {
                        let stranded =
                            due + plan.stranded.0 >= kill && due + plan.stranded.1 < kill;
                        (due + plan.quiet >= kill).then_some(stranded)
                    });
                    c.send(due, due >= timeline.measure_start, hot)?;
                    c.next_due = period.map(|p| due + p);
                    continue;
                }
                break;
            }

            // 2. Write off what a killed site still owed, give up on what
            //    is overdue (oldest first: due times only rise).
            if let Some(kill) = dies_at {
                if c.conn.open && now >= kill + KILL_GRACE {
                    c.site_died(&mut out);
                } else if c.conn.open {
                    wake = wake.min(kill + KILL_GRACE);
                }
            }
            while c
                .outstanding
                .front()
                .is_some_and(|r| now >= r.due + timeline.give_up)
            {
                let r = c.outstanding.pop_front().expect("front exists");
                r.note_unacked_writes(&mut c.model);
                if r.measured {
                    out.finish(&timeline, ci, !c.victim, &r, None);
                }
                if period.is_none() && c.outstanding.is_empty() {
                    c.next_due = Some(now);
                    wake = now;
                }
            }

            if let Some(due) = c.next_due {
                wake = wake.min(due);
            }
            if let Some(r) = c.outstanding.front() {
                wake = wake.min(r.due + timeline.give_up);
            }
        }

        if !sending && clients.iter().all(|c| c.outstanding.is_empty()) {
            break;
        }

        // 3. Wait for replies or the next deadline, then read.
        let now = Instant::now();
        if wake <= now {
            continue;
        }
        let ready = wait(clients.iter().map(|c| &c.conn), wake - now);
        for (ci, c) in clients.iter_mut().enumerate() {
            if !ready[ci] {
                continue;
            }
            c.conn.flush()?;
            let survivor = !c.victim;
            let Client {
                conn,
                outstanding,
                model,
                ..
            } = c;
            let mut completed_at = None;
            conn.pump(|rifl, outputs| {
                let at = Instant::now();
                let Ok(pos) = outstanding.binary_search_by(|r| r.locate(rifl.seq)) else {
                    return; // a reply to a request already given up
                };
                let r = &mut outstanding[pos];
                let i = (rifl.seq - r.first_seq) as usize;
                if r.pending >> i & 1 == 0 {
                    return;
                }
                r.pending &= !(1 << i);
                match (r.ops[i], outputs.first().map(|(_, o)| o)) {
                    (Op::Put(key, value), Some(Output::Done)) => {
                        if !is_hot(key) {
                            model.acked.insert(key, value);
                        }
                    }
                    (Op::Get(None), Some(Output::Value(_))) => {}
                    (Op::Get(Some(expect)), Some(Output::Value(got))) if *got == expect => {}
                    _ => out.wrong_outputs += 1,
                }
                if at >= timeline.measure_start && at < timeline.measure_end {
                    out.acked_cmds += 1;
                    let window = timeline.window_of(at);
                    if out.window_acked.len() <= window {
                        out.window_acked.resize(window + 1, 0);
                    }
                    out.window_acked[window] += 1;
                }
                if r.pending == 0 {
                    let r = outstanding.remove(pos).expect("position is valid");
                    if r.measured {
                        out.finish(&timeline, ci, survivor, &r, Some(at));
                    }
                    completed_at = Some(at);
                }
            })?;
            // A closed loop's next request is due the moment the previous
            // one completed.
            if period.is_none() && c.outstanding.is_empty() && c.next_due.is_none() {
                c.next_due = completed_at;
            }
            if !c.conn.open {
                if survivor {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        format!(
                            "replica {} closed its client connection",
                            spec.client_replicas[ci]
                        ),
                    ));
                }
                c.site_died(&mut out);
            }
        }
    }

    out.latencies_ns.sort_unstable();
    for window in &mut out.window_latencies_ns {
        window.sort_unstable();
    }
    out.lateness_ns.sort_unstable();
    let mut conns = Vec::new();
    let mut streams = Vec::new();
    for c in clients {
        conns.push(c.conn);
        streams.push(c.stream);
        out.models.push(c.model);
    }
    Ok((out, conns, streams))
}

/// Sends each connection's `scripts[i]` requests in order, keeping fewer
/// than `window` commands unanswered per connection, and hands every reply
/// to `on_reply(conn, rifl, outputs)`. For the preload and the read-back,
/// which must complete: a reply still missing after `patience` is an
/// error.
pub fn run_script(
    conns: &mut [Conn],
    scripts: Vec<Vec<Vec<Command>>>,
    window: usize,
    patience: Duration,
    mut on_reply: impl FnMut(usize, Rifl, Vec<(Key, Output)>),
) -> io::Result<()> {
    let deadline = Instant::now() + patience;
    let mut queues: Vec<VecDeque<Vec<Command>>> = scripts.into_iter().map(Into::into).collect();
    let mut unanswered = vec![0usize; conns.len()];
    loop {
        for (i, conn) in conns.iter_mut().enumerate() {
            if !conn.open && (unanswered[i] > 0 || !queues[i].is_empty()) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "replica closed the connection during preload or read-back",
                ));
            }
            while unanswered[i] < window {
                let Some(cmds) = queues[i].pop_front() else {
                    break;
                };
                unanswered[i] += cmds.len();
                conn.send_request(cmds)?;
            }
        }
        if unanswered.iter().all(|&left| left == 0) {
            return Ok(());
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "preload or read-back did not complete",
            ));
        }
        let ready = wait(conns.iter(), deadline - now);
        for (i, conn) in conns.iter_mut().enumerate() {
            if !ready[i] {
                continue;
            }
            conn.flush()?;
            conn.pump(|rifl, outputs| {
                unanswered[i] = unanswered[i].saturating_sub(1);
                on_reply(i, rifl, outputs);
            })?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use std::net::TcpListener;

    /// A stand-in replica: answers every command except those whose
    /// sequence number is a multiple of `mute_every`, until the client
    /// hangs up.
    fn half_deaf_replica(mute_every: u64) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut frame = Vec::new();
            let mut len = [0u8; 4];
            let mut first = true;
            while stream.read_exact(&mut len).is_ok() {
                let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
                if stream.read_exact(&mut payload).is_err() {
                    return;
                }
                if std::mem::take(&mut first) {
                    continue; // the hello
                }
                let Ok(ClientRequest::Submit { cmds }) = decode_payload(&payload) else {
                    return;
                };
                for cmd in cmds.iter().filter(|c| c.rifl.seq % mute_every != 0) {
                    let reply = ClientReply::Executed {
                        rifl: cmd.rifl,
                        outputs: cmd.keys().map(|k| (*k, Output::Done)).collect(),
                    };
                    encode_frame_into(&mut frame, &reply).unwrap();
                    if stream.write_all(&frame).is_err() {
                        return;
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn a_never_answered_request_is_failed_and_stays_in_the_percentiles() {
        let spec = &WORKLOADS[0]; // closed loop, one client, single PUTs
        let addr = half_deaf_replica(5);
        let conn = Conn::connect(addr, 1).unwrap();
        let stream = Stream::new(spec, 3, 0);
        let now = Instant::now();
        let give_up = Duration::from_millis(40);
        let timeline = Timeline {
            origin: now,
            start: now,
            measure_start: now,
            measure_end: now + Duration::from_millis(400),
            kill_at: None,
            trace: true,
            give_up,
        };
        let (out, conns, _) = run_load(
            spec,
            vec![conn],
            vec![stream],
            vec![Model::default()],
            timeline,
        )
        .unwrap();
        assert!(conns[0].open);
        assert!(
            out.failed >= 5,
            "every fifth request goes unanswered: {out:?}"
        );
        assert_eq!(
            out.requests as usize,
            out.latencies_ns.len(),
            "failed requests keep their sample"
        );
        // Each failure holds the loop for the whole give-up time, so the
        // failed requests are the slowest samples, at exactly that value.
        let slowest = &out.latencies_ns[out.latencies_ns.len() - out.failed as usize..];
        assert!(
            slowest.iter().all(|&ns| ns == give_up.as_nanos() as u64),
            "{slowest:?}"
        );
        assert!(out.latencies_ns[0] < give_up.as_nanos() as u64);
        assert_eq!(out.acked_cmds, out.requests - out.failed);
        assert_eq!(out.wrong_outputs, 0);
        assert_eq!(out.lost_with_site, 0);
        // The unanswered writes may or may not have been applied.
        assert_eq!(
            out.models[0].maybe.values().map(Vec::len).sum::<usize>(),
            out.failed as usize
        );
    }
}
