//! Client sessions end with their connections. A client that hangs up after
//! its last reply is never written to again, so the replica cannot learn of
//! it from a failed send: the session's reader tells the event loop, which
//! drops the reply route, and the session's writer ends with the socket.
//! One test, so nothing else in this binary opens fds while it counts them.

use atlas_core::Config;
use atlas_protocol::Atlas;
use atlas_runtime::{Client, Cluster, ClusterOptions, NetProfile};
use std::time::{Duration, Instant};

/// Open file descriptors of this process (the in-process cluster's
/// included).
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd lists this process's fds")
        .count()
}

#[test]
fn a_closed_session_releases_its_socket_and_a_reconnect_keeps_its_route() {
    // Every peer link is 50 ms one way, so a command commits no sooner
    // than ~100 ms after its submission: long enough to close a client's
    // old connection while its new one waits on a reply.
    let net = NetProfile::parse("delay=50ms").expect("profile parses");
    let options = ClusterOptions::default().with_net(net);
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn_with::<Atlas>(Config::new(3, 1), options)
            .await
            .expect("cluster boots");
        let addr = cluster.addr(1);
        // Warm up: the links are up and the journal files open.
        let mut warm = Client::connect(addr, 1).await.unwrap();
        warm.put(0, 0).await.unwrap();
        drop(warm);
        tokio::time::sleep(Duration::from_millis(300)).await;

        // 200 clients, 20 at a time: each connects, puts and hangs up.
        let start = open_fds();
        for wave in 0..10u64 {
            let clients: Vec<_> = (0..20u64)
                .map(|i| {
                    let id = 1_000 + wave * 20 + i;
                    tokio::spawn(async move {
                        let mut c = Client::connect(addr, id).await.unwrap();
                        c.put(id, id).await.unwrap();
                    })
                })
                .collect();
            for client in clients {
                client.await.unwrap();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut fds = open_fds();
        while fds > start + 10 && Instant::now() < deadline {
            tokio::time::sleep(Duration::from_millis(50)).await;
            fds = open_fds();
        }
        assert!(
            fds <= start + 10,
            "200 closed sessions left {} fds open ({start} before them)",
            fds
        );

        // Client 7 reconnects while its old connection is still open, and
        // the old one closes while the new one's command is in flight: the
        // route belongs to the new connection, so the reply still comes.
        let mut old = Client::connect(addr, 7).await.unwrap();
        old.put(70, 1).await.unwrap();
        let mut new = Client::connect_with_seq(addr, 7, 100).await.unwrap();
        let pending = tokio::spawn(async move {
            new.put(70, 2).await.unwrap();
            new
        });
        tokio::time::sleep(Duration::from_millis(20)).await;
        drop(old);
        let mut new = tokio::time::timeout(Duration::from_secs(5), pending)
            .await
            .expect("the reconnected client got its reply")
            .unwrap();
        assert_eq!(new.get(70).await.unwrap(), Some(2));
        cluster.shutdown();
    });
}
