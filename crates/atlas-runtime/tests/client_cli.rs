//! The `atlas-client` binary against a replica that hangs up mid-run: one
//! `atlas-client: <what>: <error>` line and exit status 1, not a panic.

use std::io::Read;
use std::net::TcpListener;
use std::process::Command;
use std::thread;

#[test]
fn a_replica_that_hangs_up_ends_the_client_with_one_line_and_status_1() {
    // A fake replica: accepts, reads the client's hello and closes.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            let _ = stream.read(&mut [0u8; 64]);
        }
    });

    for mode in [&["--clients", "1", "--ops", "1"][..], &["--finalize"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_atlas-client"))
            .args(["--addr", &addr])
            .args(mode)
            .output()
            .expect("atlas-client starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{mode:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{mode:?}: {stderr}");
        let last = stderr.lines().last().unwrap_or_default();
        assert!(last.starts_with("atlas-client: "), "{mode:?}: {stderr}");
    }
}
