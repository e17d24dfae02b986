//! The runtime is generic over the hosted protocol: boot a small TCP cluster
//! of every protocol in the workspace and drive traffic through it.

use atlas_core::{Command, Config, Protocol};
use atlas_runtime::{Client, Cluster};
use serde::{Deserialize, Serialize};

fn exercise<P>(config: Config)
where
    P: Protocol + Send + 'static,
    P::Message: Serialize + Deserialize + Send + 'static,
{
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn::<P>(config).await.expect("cluster boots");
        // Two clients on different replicas, sequential conflicting writes.
        let mut a = Client::connect(cluster.addr(1), 1).await.unwrap();
        let mut b = Client::connect(cluster.addr(2), 2).await.unwrap();
        for i in 0..20u64 {
            a.put(7, 100 + i).await.unwrap();
            b.put(7, 200 + i).await.unwrap();
            a.put(1, i).await.unwrap();
            assert_eq!(
                a.get(1).await.unwrap(),
                Some(i),
                "{}: read-your-writes",
                P::name()
            );
        }
        // The shared key holds one of the two clients' last writes.
        let last = a.get(7).await.unwrap().expect("key 7 written");
        assert!(
            last == 119 || last == 219,
            "{}: unexpected final value {last}",
            P::name()
        );
        // One request of 16 conflicting writes: they execute in submission
        // order, and the session writer — which drains a burst of replies
        // into one write — must hand them back in that order too.
        let cmds: Vec<Command> = (0..16u64)
            .map(|i| Command::put(b.next_rifl(), 9, i, 64))
            .collect();
        let submitted: Vec<_> = cmds.iter().map(|c| c.rifl).collect();
        let replies = b.submit_batch(cmds).await.unwrap();
        let replied: Vec<_> = replies.iter().map(|(rifl, _)| *rifl).collect();
        assert_eq!(replied, submitted, "{}: reply order", P::name());
        assert_eq!(b.get(9).await.unwrap(), Some(15), "{}", P::name());
        cluster.shutdown();
    });
}

#[test]
fn atlas_over_tcp() {
    exercise::<atlas_protocol::Atlas>(Config::new(3, 1));
}

#[test]
fn epaxos_over_tcp() {
    exercise::<epaxos::EPaxos>(Config::new(3, 1));
}

#[test]
fn fpaxos_over_tcp() {
    exercise::<fpaxos::FPaxos>(Config::new(3, 1));
}

#[test]
fn mencius_over_tcp() {
    exercise::<mencius::Mencius>(Config::new(3, 1));
}
