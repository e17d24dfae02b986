//! Wire messages of the Atlas protocol (Algorithms 1, 2 and 4 of the paper).

use crate::recovery::RecAck;
use atlas_core::{Command, DepSet, Dot, ProcessId};
use serde::{Deserialize, Serialize};

/// Ballot numbers used by the per-identifier consensus. Ballot `i ≤ n` is
/// reserved for the initial coordinator `i`; recovery ballots are always
/// greater than `n` (paper §3.2.3).
pub type Ballot = u64;

/// Messages exchanged by Atlas replicas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Coordinator → fast quorum: start the collect phase for `dot`
    /// (Algorithm 1, line 5).
    MCollect {
        /// Command identifier.
        dot: Dot,
        /// The command payload.
        cmd: Command,
        /// Conflicting commands known to the coordinator (its `past`).
        past: DepSet,
        /// The fast quorum chosen by the coordinator.
        quorum: Vec<ProcessId>,
    },
    /// Fast-quorum member → coordinator: dependencies observed locally
    /// (Algorithm 1, line 11).
    MCollectAck {
        /// Command identifier.
        dot: Dot,
        /// Dependencies computed by the sender.
        deps: DepSet,
    },
    /// Consensus phase-2 proposal (slow path or recovery; Algorithm 1,
    /// line 19 / Algorithm 2, lines 48–52).
    MConsensus {
        /// Command identifier.
        dot: Dot,
        /// Proposed command payload (may be `noOp` after recovery).
        cmd: Command,
        /// Proposed dependency set.
        deps: DepSet,
        /// Proposal ballot.
        ballot: Ballot,
    },
    /// Consensus phase-2 accept acknowledgement (Algorithm 1, line 24).
    MConsensusAck {
        /// Command identifier.
        dot: Dot,
        /// Ballot being acknowledged.
        ballot: Ballot,
    },
    /// Final commit notification carrying the agreed command and
    /// dependencies (Algorithm 1, lines 16 and 27).
    MCommit {
        /// Command identifier.
        dot: Dot,
        /// Agreed command payload.
        cmd: Command,
        /// Agreed dependency set.
        deps: DepSet,
    },
    /// Recovery phase-1: a new coordinator tries to take over `dot`
    /// (Algorithm 2, line 33).
    MRec {
        /// Command identifier being recovered.
        dot: Dot,
        /// The command as known by the new coordinator (`noOp` if unknown).
        cmd: Command,
        /// Recovery ballot (always greater than `n`).
        ballot: Ballot,
    },
    /// Recovery phase-1 acknowledgement carrying everything the sender knows
    /// about `dot` (Algorithm 2, line 43).
    MRecAck {
        /// Command identifier being recovered.
        dot: Dot,
        /// What the sender knows.
        ack: RecAck,
        /// Ballot being acknowledged.
        ballot: Ballot,
    },
}

impl Message {
    /// The command identifier this message refers to.
    pub fn dot(&self) -> Dot {
        match self {
            Message::MCollect { dot, .. }
            | Message::MCollectAck { dot, .. }
            | Message::MConsensus { dot, .. }
            | Message::MConsensusAck { dot, .. }
            | Message::MCommit { dot, .. }
            | Message::MRec { dot, .. }
            | Message::MRecAck { dot, .. } => *dot,
        }
    }

    /// Approximate serialized size of the message in bytes, used by the
    /// simulator to model bandwidth-related delays for large payloads.
    pub fn size_bytes(&self) -> usize {
        const HEADER: usize = 32;
        const PER_DEP: usize = 12;
        match self {
            Message::MCollect { cmd, past, .. } => HEADER + cmd.payload_size + PER_DEP * past.len(),
            Message::MCollectAck { deps, .. } => HEADER + PER_DEP * deps.len(),
            Message::MConsensus { cmd, deps, .. } => {
                HEADER + cmd.payload_size + PER_DEP * deps.len()
            }
            Message::MConsensusAck { .. } => HEADER,
            Message::MCommit { cmd, deps, .. } => HEADER + cmd.payload_size + PER_DEP * deps.len(),
            Message::MRec { cmd, .. } => HEADER + cmd.payload_size,
            Message::MRecAck { ack, .. } => {
                HEADER + ack.cmd.payload_size + PER_DEP * ack.deps.len()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::Rifl;

    #[test]
    fn dot_accessor_covers_all_variants() {
        let dot = Dot::new(2, 7);
        let cmd = Command::put(Rifl::new(1, 1), 0, 1, 100);
        let msgs = vec![
            Message::MCollect {
                dot,
                cmd: cmd.clone(),
                past: DepSet::new(),
                quorum: vec![1, 2, 3],
            },
            Message::MCollectAck {
                dot,
                deps: DepSet::new(),
            },
            Message::MConsensus {
                dot,
                cmd: cmd.clone(),
                deps: DepSet::new(),
                ballot: 9,
            },
            Message::MConsensusAck { dot, ballot: 9 },
            Message::MCommit {
                dot,
                cmd: cmd.clone(),
                deps: DepSet::new(),
            },
            Message::MRec {
                dot,
                cmd: cmd.clone(),
                ballot: 12,
            },
            Message::MRecAck {
                dot,
                ack: RecAck {
                    cmd,
                    deps: DepSet::new(),
                    quorum: vec![],
                    accepted_ballot: 0,
                },
                ballot: 12,
            },
        ];
        for msg in msgs {
            assert_eq!(msg.dot(), dot);
            assert!(msg.size_bytes() >= 32);
        }
    }

    #[test]
    fn messages_written_with_hash_set_dependencies_still_decode() {
        // Journals and peers of the previous layout encoded a dependency
        // set as a `HashSet<Dot>`: same framing, elements in byte order.
        let dot = Dot::new(2, 7);
        let cmd = Command::put(Rifl::new(1, 1), 0, 1, 100);
        let deps = [Dot::new(1, 300), Dot::new(3, 2), Dot::new(2, 256)];
        let old_set: std::collections::HashSet<Dot> = deps.into_iter().collect();
        let old = bincode::serialize(&(4u32, dot, &cmd, &old_set)).unwrap();
        let decoded: Message = bincode::deserialize(&old).unwrap();
        let deps = deps.into();
        assert_eq!(decoded, Message::MCommit { dot, cmd, deps });
    }

    #[test]
    fn message_size_grows_with_payload_and_deps() {
        let dot = Dot::new(1, 1);
        let small = Message::MCommit {
            dot,
            cmd: Command::put(Rifl::new(1, 1), 0, 1, 100),
            deps: DepSet::new(),
        };
        let large = Message::MCommit {
            dot,
            cmd: Command::put(Rifl::new(1, 1), 0, 1, 3_000),
            deps: (1..=10).map(|s| Dot::new(s, 1)).collect(),
        };
        assert!(large.size_bytes() > small.size_bytes());
    }
}
