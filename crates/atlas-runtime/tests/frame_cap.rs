//! What a client can send and ask for near the 32 MiB frame cap
//! (`wire::MAX_FRAME_BYTES`): a request whose instance would not fit in a
//! peer frame is refused at the session, and the answer to an execution
//! query is one frame whose size does not grow with the history.

use atlas_core::{Command, Config, KvOp, Rifl};
use atlas_protocol::Atlas;
use atlas_runtime::wire::{
    decode_payload, write_frame, ClientReply, ClientRequest, FrameReader, Hello, MAX_FRAME_BYTES,
    MAX_REQUEST_BYTES,
};
use atlas_runtime::{Client, Cluster};
use kvstore::ExecutionSummary;
use std::net::SocketAddr;
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
        let (summary, _) = client.execution_log().await.unwrap();
        let client_2 = ExecutionSummary::set_of([Rifl::new(2, 1), Rifl::new(2, 2)]);
        assert_eq!(
            (summary.len(), summary.set),
            (2, client_2),
            "the oversized command executed"
        );
        cluster.shutdown();
    });
}

/// One raw execution query against `addr`: the reply frame's payload
/// size, and the summary it carries.
async fn query(addr: SocketAddr) -> (usize, ExecutionSummary) {
    let stream = tokio::net::TcpStream::connect(addr).await.unwrap();
    let (reader, mut writer) = stream.into_split();
    write_frame(&mut writer, &Hello::Client { client: 9 })
        .await
        .unwrap();
    write_frame(&mut writer, &ClientRequest::ExecutionLog)
        .await
        .unwrap();
    let mut frames = FrameReader::new(reader);
    let payload = frames.next().await.unwrap().expect("a reply frame");
    let size = payload.len();
    match decode_payload::<ClientReply>(payload).unwrap() {
        ClientReply::ExecutionLog { summary, .. } => (size, summary),
        other => panic!("unexpected reply {other:?}"),
    }
}

/// The answer to an execution query is one frame of one size, after 10
/// commands as after 10 000: it carries the store's summary, not the
/// history.
#[test]
fn a_query_reply_does_not_grow_with_the_history() {
    const BATCH: u64 = 111;
    async fn puts(client: &mut Client, n: u64) {
        let cmds = (0..n)
            .map(|i| Command::put(client.next_rifl(), i % 64, i, 8))
            .collect();
        client.submit_batch(cmds).await.unwrap();
    }
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let cluster = Cluster::spawn::<Atlas>(Config::new(3, 1))
            .await
            .expect("cluster boots");
        let addr = cluster.addr(1);
        let mut client = Client::connect(addr, 1).await.unwrap();
        puts(&mut client, 10).await;
        let (small, after_10) = query(addr).await;
        assert_eq!(after_10.len(), 10);
        for _ in 0..(10_000 - 10) / BATCH {
            puts(&mut client, BATCH).await;
        }
        let (large, after_10_000) = query(addr).await;
        assert_eq!(after_10_000.len(), 10_000);
        assert_eq!(large, small, "the reply grew with the history");
        assert!(large <= MAX_FRAME_BYTES);
        cluster.shutdown();
    });
}
