//! What a client can send and ask for near the 32 MiB frame cap
//! (`wire::MAX_FRAME_BYTES`): a request whose instance would not fit in a
//! peer frame is refused at the session, and an execution record too long
//! for one frame still reaches the client whole.

use atlas_core::{ClusterView, Command, Config, Dot, KvOp, ProcessId, Protocol, Rifl, Topology};
use atlas_log::SnapshotStore;
use atlas_protocol::Atlas;
use atlas_runtime::journal::ReplicaSnapshot;
use atlas_runtime::wire::{
    decode_payload, write_frame, ClientReply, ClientRequest, FrameReader, Hello, MAX_FRAME_BYTES,
    MAX_REQUEST_BYTES,
};
use atlas_runtime::{Client, Cluster};
use kvstore::KVStore;
use std::time::Duration;

/// Whether the replica closes `stream` (end of stream, nothing read)
/// within a few seconds.
async fn hung_up(mut stream: tokio::net::TcpStream) -> bool {
    use tokio::io::AsyncReadExt;
    let read = tokio::time::timeout(Duration::from_secs(5), async move {
        let mut buf = [0u8; 64];
        stream.read(&mut buf).await
    });
    matches!(read.await, Ok(Ok(0)))
}

/// One command of 1 677 719 puts is a 33 554 426-byte request, inside the
/// frame cap, but its `MCollect` is not: the coordinator could neither
/// frame it for its peers nor serve anything after. The session is
/// dropped instead, and the replica keeps serving other clients.
#[test]
fn a_request_whose_instance_outgrows_a_frame_drops_its_session() {
    const PUTS: u64 = 1_677_719;
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn::<Atlas>(Config::new(3, 1))
            .await
            .expect("cluster boots");
        let addr = cluster.addr(1);
        let mut stream = tokio::net::TcpStream::connect(addr).await.unwrap();
        write_frame(&mut stream, &Hello::Client { client: 1 })
            .await
            .unwrap();
        let ops = (0..PUTS).map(|key| (key, KvOp::Put(key)));
        let cmds = vec![Command::new(Rifl::new(1, 1), ops, 8)];
        let request = ClientRequest::Submit { cmds };
        let bytes = bincode::serialize(&request).unwrap().len();
        assert_eq!(bytes, 33_554_426);
        assert!(bytes <= MAX_FRAME_BYTES && bytes > MAX_REQUEST_BYTES);
        write_frame(&mut stream, &request).await.unwrap();
        drop(request);
        assert!(
            hung_up(stream).await,
            "the oversized request's session stays open"
        );

        let mut client = Client::connect(addr, 2).await.unwrap();
        let put = tokio::time::timeout(Duration::from_secs(5), client.put(1, 7));
        put.await.expect("the coordinator still serves").unwrap();
        assert_eq!(client.get(1).await.unwrap(), Some(7));
        let (log, _) = client.execution_log().await.unwrap();
        assert!(
            log.iter().all(|&(_, rifl)| rifl != Rifl::new(1, 1)),
            "the oversized command executed"
        );
        cluster.shutdown();
    });
}

/// An execution record of 1.25 M entries encodes to 35 MB, more than one
/// frame holds: it arrives in parts, each frame within the cap, and
/// `Client::execution_log` puts them back together. (The replica reads the
/// record from a snapshot written for the test; executing that many
/// commands would take the suite minutes.)
#[test]
fn an_execution_record_longer_than_a_frame_arrives_whole() {
    const ENTRIES: u64 = 1_250_000;
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let config = Config::new(3, 1);
        let mut cluster = Cluster::spawn::<Atlas>(config)
            .await
            .expect("cluster boots");
        cluster.kill(1);
        let log: Vec<(Dot, Rifl)> = (1..=ENTRIES)
            .map(|seq| {
                (
                    Dot::new(1 + (seq % 3) as ProcessId, seq),
                    Rifl::new(seq % 7, seq),
                )
            })
            .collect();
        let protocol = Atlas::new(1, config, Topology::from_members(1, &[1, 2, 3]));
        let snapshot = ReplicaSnapshot {
            protocol: protocol.save_state().expect("Atlas snapshots its state"),
            store: KVStore::new(),
            log: log.clone(),
            view: ClusterView::initial(config),
            addrs: Vec::new(),
        };
        let bytes = bincode::serialize(&snapshot).unwrap();
        drop(snapshot);
        SnapshotStore::open(cluster.data_dir(1))
            .and_then(|store| store.save(1, &bytes))
            .expect("snapshot written");
        drop(bytes);
        cluster
            .restart::<Atlas>(1)
            .await
            .expect("replica 1 restarts");

        // Frame by frame: every frame within the cap, the record in order.
        let addr = cluster.addr(1);
        let stream = tokio::net::TcpStream::connect(addr).await.unwrap();
        let (reader, mut writer) = stream.into_split();
        write_frame(&mut writer, &Hello::Client { client: 9 })
            .await
            .unwrap();
        write_frame(&mut writer, &ClientRequest::ExecutionLog)
            .await
            .unwrap();
        let mut frames = FrameReader::new(reader);
        let mut record = Vec::new();
        let mut parts = 0;
        let read = async {
            loop {
                let payload = frames.next().await.unwrap().expect("a reply frame");
                assert!(payload.len() <= MAX_FRAME_BYTES);
                match decode_payload::<ClientReply>(payload).unwrap() {
                    ClientReply::ExecutionLogPart { entries } => {
                        parts += 1;
                        record.extend(entries);
                    }
                    ClientReply::ExecutionLog { entries, .. } => {
                        record.extend(entries);
                        return;
                    }
                    other => panic!("unexpected reply {other:?}"),
                }
            }
        };
        tokio::time::timeout(Duration::from_secs(30), read)
            .await
            .expect("the record arrives");
        assert!(parts > 1, "{parts} parts");
        assert!(record == log, "the record arrives whole and in order");
        drop(record);

        let mut client = Client::connect(addr, 10).await.unwrap();
        let query = tokio::time::timeout(Duration::from_secs(30), client.execution_log());
        let (record, _) = query.await.expect("the record arrives").unwrap();
        assert_eq!(record.len() as u64, ENTRIES);
        assert!(record == log, "Client::execution_log reassembles the parts");
        cluster.shutdown();
    });
}
