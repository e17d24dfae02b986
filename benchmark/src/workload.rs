//! The four workloads and their seeded command streams.
//!
//! Replicas see only what comes out of [`Stream`]: a deterministic function
//! of the seed, the workload and the client's index. How *many* requests a
//! closed loop consumes depends on the machine; which request comes n-th
//! does not.

use atlas_core::{ClientId, Command, Key, ProcessId, Rifl, Value};
use atlas_log::FlushPolicy;
use std::time::Duration;

/// Private keys each client preloads and then draws from.
pub const PRIVATE_KEYS: u64 = 10_000;
/// Shared hot keys, preloaded by the first client: keys `0..HOT_KEYS`.
pub const HOT_KEYS: u64 = 4;
/// Synthetic payload size of every PUT, bytes.
pub const PAYLOAD_BYTES: usize = 64;
/// Commands per preload request.
pub const PRELOAD_BATCH: usize = 250;

/// How requests are issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// Each client sends its next request when the previous one completed.
    Closed,
    /// Each client sends on a fixed schedule, this many requests per second.
    Open {
        /// Requests per second per client, evenly spaced.
        rate_per_client: u32,
    },
}

/// One workload: who sends what, how, under which injected conditions.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in every metric line.
    pub name: &'static str,
    /// The replica each client connects to (one connection per entry).
    pub client_replicas: &'static [ProcessId],
    /// Closed or open loop.
    pub loop_kind: LoopKind,
    /// Commands per client request.
    pub batch: usize,
    /// Percent of commands that are GETs.
    pub get_pct: u64,
    /// Percent of commands that go to a shared hot key, evenly spaced
    /// through each client's stream (no dice: the number of conflicting
    /// commands in a window is then the same in every run).
    pub hot_pct: u64,
    /// How many of the [`HOT_KEYS`] the hot commands spread over.
    pub hot_keys: u64,
    /// Journal flush policy of every replica.
    pub flush: FlushPolicy,
    /// Whether replicas snapshot (every 4096 journal records) and collect
    /// executed entries (every 40 ticks, each round followed by a
    /// snapshot). A snapshot fsyncs three times on the replica's event
    /// loop, so with it every workload measures the disk; only the
    /// workload that is about the disk keeps it.
    pub compaction: bool,
    /// Fixed one-way delays between replicas (`(from, to, delay)` applies
    /// to both directions), jitter 0.
    pub delays: &'static [(ProcessId, ProcessId, Duration)],
    /// The fault, injected [`KILL_AFTER_THIRDS`] thirds into the measured interval.
    pub kill: Option<Kill>,
    /// Whether the whole process is pinned to one core. Off, the replicas'
    /// two workers, the reactor and the generator thread share the
    /// machine's cores as they would in a deployment, so locks and
    /// cross-core hand-offs are part of what is measured.
    pub one_core: bool,
    /// Why the workload exists; `BENCHMARK.json` carries the same line.
    pub why: &'static str,
}

/// A [`Kill`] happens this many thirds of the measured interval in: late
/// enough that the median is the healthy cluster's, early enough that the
/// takeover and the steady state after it are inside the interval.
pub const KILL_AFTER_THIRDS: u32 = 2;

/// A replica crash and the command schedule around it.
///
/// Only commands that conflict with a command the dead coordinator left
/// half-committed wait for the failure detector, so the schedule decides
/// which of the victim's last commands conflict: with none in flight the
/// kill stalls nobody, with dozens the survivors need a second suspicion
/// round (3 s instead of 1.6 s) in most runs but not all. A couple, placed
/// where they have reached a survivor but cannot have committed, give the
/// same single-round takeover every run.
#[derive(Debug, Clone, Copy)]
pub struct Kill {
    /// The replica that dies and stays down.
    pub replica: ProcessId,
    /// This long before the kill the victim's client stops drawing hot
    /// keys on its own.
    pub quiet: Duration,
    /// The victim's requests due between `stranded.0` and `stranded.1`
    /// before the kill write the hot key: one to three one-way delays to
    /// its quorum peer, so the peer has seen them and the victim dies
    /// before their commit leaves its delay queue. At the victim's rate
    /// that is two requests; one at either edge of the window that misses
    /// (never arrives, or commits after all) strands nothing and harms
    /// nothing.
    pub stranded: (Duration, Duration),
}

const MS: Duration = Duration::from_millis(1);

/// The benchmark's workloads, in report order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "lan_rt",
        client_replicas: &[1],
        loop_kind: LoopKind::Closed,
        batch: 1,
        get_pct: 0,
        hot_pct: 0,
        hot_keys: HOT_KEYS,
        flush: FlushPolicy::OsBuffered,
        compaction: false,
        delays: &[],
        kill: None,
        one_core: true,
        why: "One closed-loop client, single PUTs, no conflicts, no injected delay, process pinned to one core: the latency floor, where reactor wake-ups, syscalls and task hand-offs are most of the cost.",
    },
    Spec {
        name: "lan_batch",
        client_replicas: &[1, 2],
        loop_kind: LoopKind::Closed,
        batch: 16,
        get_pct: 50,
        hot_pct: 5,
        hot_keys: HOT_KEYS,
        flush: FlushPolicy::OsBuffered,
        compaction: false,
        delays: &[],
        kill: None,
        one_core: true,
        why: "Two closed-loop clients, 16-command batches, half GETs, 5 % on four hot keys, process pinned to one core: CPU-saturated, so per-command work in journal, protocol, graph and wire sets throughput.",
    },
    Spec {
        name: "lan_durable",
        client_replicas: &[1, 2],
        loop_kind: LoopKind::Closed,
        batch: 16,
        get_pct: 0,
        hot_pct: 0,
        hot_keys: HOT_KEYS,
        flush: FlushPolicy::EveryN(64),
        compaction: true,
        delays: &[],
        kill: None,
        one_core: false,
        why: "Two closed-loop clients, 16-PUT batches, fsync every 64 journal records (replica default), snapshots and GC on, both cores: disk-bound; a CPU-path gain should not move it, a group-commit gain only it.",
    },
    Spec {
        name: "geo3_crash",
        // The survivor's client first: it also owns the hot-key preload
        // and the read-back after the kill.
        client_replicas: &[3, 2],
        loop_kind: LoopKind::Open {
            rate_per_client: 125,
        },
        batch: 1,
        get_pct: 0,
        hot_pct: 40,
        hot_keys: 1,
        flush: FlushPolicy::OsBuffered,
        compaction: false,
        delays: &[
            (1, 2, Duration::from_millis(10)),
            (1, 3, Duration::from_millis(20)),
            (2, 3, Duration::from_millis(15)),
        ],
        kill: Some(Kill {
            replica: 2,
            quiet: Duration::from_millis(100),
            stranded: (Duration::from_millis(30), Duration::from_millis(10)),
        }),
        one_core: false,
        why: "Open loop, 250 requests/s over 10/15/20 ms one-way delays, 40 % on one hot key, replica 2 killed two thirds in, both cores: quorum round trips set the median, the detector/recovery stall sets the p99.",
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// Largest injected round trip, for time-outs that must scale with it.
    pub fn max_rtt(&self) -> Duration {
        self.delays
            .iter()
            .map(|d| d.2 * 2)
            .max()
            .unwrap_or(Duration::ZERO)
            .max(MS)
    }
}

/// splitmix64: small, seedable, and identical everywhere — the stream must
/// not change when a dependency's generator does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0; the modulo bias at these bounds
    /// is below 2⁻⁵⁰).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// First private key of client `index` (0-based); hot keys sit below every
/// private range.
pub fn private_base(index: usize) -> Key {
    (index as u64 + 1) * 1_000_000
}

/// Index of the client whose private range holds `key`.
pub fn owner_of(key: Key) -> usize {
    (key / 1_000_000) as usize - 1
}

/// Client identifier of client `index`: 1 and 2.
pub fn client_id(index: usize) -> ClientId {
    index as u64 + 1
}

/// The seeded command stream of one client of one workload.
#[derive(Debug, Clone)]
pub struct Stream {
    spec: Spec,
    index: usize,
    rng: SplitMix64,
    next_seq: u64,
    /// Workload commands generated so far (the preload does not count).
    issued: u64,
}

impl Stream {
    /// Stream of client `index` under `seed`.
    pub fn new(spec: &Spec, seed: u64, index: usize) -> Self {
        // Decorrelate clients and workloads that share a seed.
        let mut mix =
            SplitMix64::new(seed ^ (index as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        let rng = SplitMix64::new(mix.next_u64() ^ spec.name.len() as u64);
        Self {
            spec: *spec,
            index,
            rng,
            next_seq: 1,
            issued: 0,
        }
    }

    /// This stream's client identifier.
    pub fn client(&self) -> ClientId {
        client_id(self.index)
    }

    fn rifl(&mut self) -> Rifl {
        let rifl = Rifl::new(self.client(), self.next_seq);
        self.next_seq += 1;
        rifl
    }

    /// Values are unique across clients and commands, so a read-back can
    /// tell exactly which write it observed.
    fn value(&self, seq: u64) -> Value {
        (self.client() << 48) | seq
    }

    /// The preload: every private key (and, for client 0, every hot key)
    /// written once, in requests of [`PRELOAD_BATCH`] commands.
    pub fn preload(&mut self) -> Vec<Vec<Command>> {
        let base = private_base(self.index);
        let mut keys: Vec<Key> = (base..base + PRIVATE_KEYS).collect();
        if self.index == 0 {
            keys.extend(0..HOT_KEYS);
        }
        keys.chunks(PRELOAD_BATCH)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|&key| {
                        let rifl = self.rifl();
                        Command::put(rifl, key, self.value(rifl.seq), PAYLOAD_BYTES)
                    })
                    .collect()
            })
            .collect()
    }

    /// The next client request: `spec.batch` commands. `force` overrides
    /// the hot-key choice for all of them — the fault schedule uses it to
    /// decide exactly which of the victim's last commands conflict.
    pub fn next_request(&mut self, force: Option<bool>) -> Vec<Command> {
        (0..self.spec.batch)
            .map(|_| self.next_command(force))
            .collect()
    }

    fn next_command(&mut self, force: Option<bool>) -> Command {
        let rifl = self.rifl();
        // Command k is hot when k·pct wraps past a multiple of 100.
        let hot = force.unwrap_or((self.issued * self.spec.hot_pct) % 100 < self.spec.hot_pct);
        self.issued += 1;
        let key = if hot {
            self.rng.below(self.spec.hot_keys)
        } else {
            private_base(self.index) + self.rng.below(PRIVATE_KEYS)
        };
        if self.rng.below(100) < self.spec.get_pct {
            Command::get(rifl, key)
        } else {
            Command::put(rifl, key, self.value(rifl.seq), PAYLOAD_BYTES)
        }
    }

    /// Read-back of every private key of client `owner` through consensus,
    /// issued under *this* stream's identity (the survivor reads the
    /// victim's keys after a kill).
    pub fn read_back(&mut self, owner: usize) -> Vec<Vec<Command>> {
        let base = private_base(owner);
        let keys: Vec<Key> = (base..base + PRIVATE_KEYS).collect();
        keys.chunks(PRELOAD_BATCH)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|&key| Command::get(self.rifl(), key))
                    .collect()
            })
            .collect()
    }
}

/// Whether `key` is one of the shared hot keys.
pub fn is_hot(key: Key) -> bool {
    key < HOT_KEYS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(spec: &Spec, seed: u64, index: usize, requests: usize) -> Vec<u8> {
        let mut s = Stream::new(spec, seed, index);
        let mut out = Vec::new();
        for batch in s.preload() {
            out.extend(bincode::serialize(&batch).unwrap());
        }
        for _ in 0..requests {
            out.extend(bincode::serialize(&s.next_request(None)).unwrap());
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_streams_and_other_seeds_differ() {
        for spec in &WORKLOADS {
            let a = bytes(spec, 42, 0, 500);
            assert_eq!(a, bytes(spec, 42, 0, 500), "{}", spec.name);
            assert_ne!(a, bytes(spec, 43, 0, 500), "{}", spec.name);
            assert_ne!(a, bytes(spec, 42, 1, 500), "{}", spec.name);
        }
    }

    #[test]
    fn shapes_match_the_workload_table() {
        let batch = find("lan_batch").unwrap();
        let mut s = Stream::new(batch, 7, 1);
        let cmds: Vec<Command> = (0..2_000).flat_map(|_| s.next_request(None)).collect();
        assert_eq!(cmds.len(), 32_000);
        let gets = cmds.iter().filter(|c| c.is_read_only()).count();
        let hot = cmds.iter().filter(|c| c.keys().all(|k| is_hot(*k))).count();
        assert!((15_000..17_000).contains(&gets), "gets {gets}");
        assert_eq!(hot, 1_600, "5 % of 32 000, evenly spaced");
        // Private keys stay inside the owner's range.
        let base = private_base(1);
        assert!(cmds
            .iter()
            .flat_map(|c| c.keys())
            .all(|k| is_hot(*k) || (base..base + PRIVATE_KEYS).contains(k)));

        let rt = find("lan_rt").unwrap();
        let mut s = Stream::new(rt, 7, 0);
        assert!((0..1_000).all(|_| {
            let r = s.next_request(None);
            r.len() == 1 && r[0].is_write() && !is_hot(*r[0].keys().next().unwrap())
        }));
        assert!(find("nope").is_none());
    }

    /// The reasons are prose, but the numbers in them are the table's.
    #[test]
    fn the_reasons_quote_the_table() {
        for w in &WORKLOADS {
            let says = |text: &str| assert!(w.why.contains(text), "{}: no {text:?}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            if w.hot_pct > 0 {
                says(&format!("{} % on", w.hot_pct));
            }
            if w.batch > 1 {
                says(&format!("{}-", w.batch));
            }
            if let LoopKind::Open { rate_per_client } = w.loop_kind {
                let total = rate_per_client as usize * w.client_replicas.len();
                says(&format!("{total} requests/s"));
            }
            for (_, _, delay) in w.delays {
                says(&delay.as_millis().to_string());
            }
            if let Some(kill) = w.kill {
                let thirds = ["", "one third", "two thirds"][KILL_AFTER_THIRDS as usize];
                says(&format!("replica {} killed {thirds} in", kill.replica));
            }
            assert_eq!(w.one_core, w.why.contains("one core"), "{}", w.name);
        }
    }

    #[test]
    fn preload_covers_every_key_once_with_unique_rifls() {
        let spec = find("geo3_crash").unwrap();
        let mut s = Stream::new(spec, 1, 0);
        let cmds: Vec<Command> = s.preload().into_iter().flatten().collect();
        assert_eq!(cmds.len() as u64, PRIVATE_KEYS + HOT_KEYS);
        let mut keys: Vec<Key> = cmds.iter().flat_map(|c| c.keys().copied()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len() as u64, PRIVATE_KEYS + HOT_KEYS);
        // The workload continues the same rifl sequence.
        assert_eq!(
            s.next_request(None)[0].rifl.seq,
            PRIVATE_KEYS + HOT_KEYS + 1
        );
        assert!(s.next_request(Some(true))[0].keys().all(|k| is_hot(*k)));
        let mut other = Stream::new(spec, 1, 1);
        assert_eq!(other.preload().concat().len() as u64, PRIVATE_KEYS);
    }
}
