//! The runtime is generic over the hosted protocol: boot a small TCP cluster
//! of every protocol in the workspace and drive traffic through it.

use atlas_core::{Command, Config, ProcessId, Protocol, Rifl};
use atlas_runtime::{Client, Cluster};
use kvstore::{ExecutionSummary, Output};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// The commands `exercise` submits: 20 rounds of three puts and a get, one
/// get, the 33-part batch and its closing get — client 1's 61 and client
/// 2's 54.
const ISSUED: u64 = 20 * 4 + 1 + 33 + 1;

/// The `set` word of executing the `n` first commands of each client.
fn set_of(clients: &[(u64, u64)]) -> u64 {
    let rifls = clients
        .iter()
        .flat_map(|&(client, n)| (1..=n).map(move |seq| Rifl::new(client, seq)));
    ExecutionSummary::set_of(rifls)
}

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
        // One request of 16 conflicting writes with a read of their key
        // before and after each, a batch of 33 parts: they execute in
        // submission order, each read seeing the write just before it, and
        // the session writer — which drains a burst of replies into one
        // write — must hand them back in that order too.
        let mut cmds = vec![Command::get(b.next_rifl(), 9)];
        let mut expected = vec![Output::Value(None)];
        for i in 0..16u64 {
            cmds.push(Command::put(b.next_rifl(), 9, i, 64));
            cmds.push(Command::get(b.next_rifl(), 9));
            expected.extend([Output::Done, Output::Value(Some(i))]);
        }
        let submitted: Vec<_> = cmds.iter().map(|c| c.rifl).collect();
        let replies = b.submit_batch(cmds).await.unwrap();
        let replied: Vec<_> = replies.iter().map(|(rifl, _)| *rifl).collect();
        assert_eq!(replied, submitted, "{}: reply order", P::name());
        let outputs: Vec<Output> = replies
            .into_iter()
            .map(|(_, outputs)| match outputs.as_slice() {
                [(9, output)] => output.clone(),
                other => panic!("{}: outputs {other:?}", P::name()),
            })
            .collect();
        assert_eq!(outputs, expected, "{}: sequential outputs", P::name());
        assert_eq!(b.get(9).await.unwrap(), Some(15), "{}", P::name());

        // Every replica ends with the same store, having executed exactly
        // the clients' commands (the count and the set word; commuting
        // commands may execute in different orders) and each key's writes
        // in the same order. A replica may still be executing the tail.
        let set = set_of(&[(1, 61), (2, 54)]);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let mut views = Vec::new();
            for id in 1..=config.n as ProcessId {
                let mut probe = Client::connect(cluster.addr(id), 900 + id as u64)
                    .await
                    .unwrap();
                views.push(probe.execution_log().await.unwrap());
            }
            let (summary, _) = views[0];
            if views.iter().all(|view| *view == views[0])
                && summary.len() == ISSUED
                && summary.set == set
            {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{}: replicas disagree: {views:?}",
                P::name(),
            );
            tokio::time::sleep(Duration::from_millis(50)).await;
        }
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

/// Whether the replica closes `stream` (end of stream, nothing read)
/// within a few seconds.
async fn hung_up(mut stream: tokio::net::TcpStream) -> bool {
    use tokio::io::AsyncReadExt;
    let read = tokio::time::timeout(std::time::Duration::from_secs(5), async move {
        let mut buf = [0u8; 64];
        stream.read(&mut buf).await
    });
    matches!(read.await, Ok(Ok(0)))
}

/// A session may only submit under its own client identifier: replies are
/// routed by that identifier, so a connection that says hello as client 1
/// and submits with client 2's rifl would otherwise take over 2's replies
/// (and 2's closed loop would hang). The replica drops such a connection
/// before the request reaches the journal or the protocol, in every build.
#[test]
fn a_session_cannot_submit_as_another_client() {
    use atlas_runtime::wire::{write_frame, ClientRequest, Hello};
    use std::time::Duration;

    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn::<atlas_protocol::Atlas>(Config::new(3, 1))
            .await
            .expect("cluster boots");
        let addr = cluster.addr(1);
        let mut victim = Client::connect(addr, 2).await.unwrap();
        victim.put(5, 1).await.unwrap();

        let forged = Rifl::new(2, 1_000_000);
        let mut hostile = tokio::net::TcpStream::connect(addr).await.unwrap();
        write_frame(&mut hostile, &Hello::Client { client: 1 })
            .await
            .unwrap();
        let cmds = vec![Command::put(forged, 5, 666, 64)];
        write_frame(&mut hostile, &ClientRequest::Submit { cmds })
            .await
            .unwrap();
        assert!(hung_up(hostile).await, "the forged session stays open");

        // The victim is still answered, and the forged command never ran:
        // the replica executed exactly the victim's three commands.
        let put = tokio::time::timeout(Duration::from_secs(5), victim.put(5, 2));
        put.await.expect("victim answered").unwrap();
        assert_eq!(victim.get(5).await.unwrap(), Some(2));
        let (summary, _) = victim.execution_log().await.unwrap();
        assert_eq!(summary.len(), 3, "the forged command executed");
        assert_eq!(summary.set, set_of(&[(2, 3)]));
        cluster.shutdown();
    });
}

/// Likewise a peer connection: a frame naming another sender than the
/// connection's hello drops the connection.
#[test]
fn a_peer_frame_must_name_its_hello_sender() {
    use atlas_runtime::wire::{write_frame, Hello, PeerBody, PeerFrame};

    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn::<atlas_protocol::Atlas>(Config::new(3, 1))
            .await
            .expect("cluster boots");
        let mut posing = tokio::net::TcpStream::connect(cluster.addr(1))
            .await
            .unwrap();
        write_frame(&mut posing, &Hello::Peer { from: 2 })
            .await
            .unwrap();
        let frame = PeerFrame {
            from: 3,
            seq: 0,
            epoch: 0,
            body: PeerBody::Ack(0),
        };
        write_frame(&mut posing, &frame).await.unwrap();
        assert!(hung_up(posing).await, "the posing peer stays connected");
        cluster.shutdown();
    });
}
