//! Runs one networked replica: `atlas-replica --id 1 --f 1
//! --addrs 127.0.0.1:4001,127.0.0.1:4002,127.0.0.1:4003 [--protocol atlas]
//! [--data-dir /var/lib/atlas/r1]`
//!
//! The `--addrs` list is the full cluster membership in identifier order;
//! replica `--id i` binds the `i`-th address and dials the others with
//! reconnecting links, so start order does not matter. After membership
//! changes identifiers are no longer contiguous, so each entry may also be
//! written `id=addr` (`--addrs 1=127.0.0.1:4001,2=127.0.0.1:4002,5=...`);
//! the two syntaxes cannot be mixed.
//!
//! Every flag, with its default, is listed in the README's "`atlas-replica`
//! flags" table; each sets one field of [`ReplicaConfig`] or of its
//! [`ClusterOptions`].

use atlas_core::{Config, ProcessId, Protocol};
use atlas_log::FlushPolicy;
use atlas_runtime::replica::{self, Boot, ReplicaConfig};
use atlas_runtime::{ClusterOptions, NetProfile};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::exit;
use std::str::FromStr;
use std::time::Duration;

const USAGE: &str = "usage: atlas-replica --id <id> --addrs <a1,a2,...|id=addr,...> [--f <f>] \
     [--protocol atlas|epaxos|fpaxos|mencius] [--nfr] \
     [--data-dir <path>] [--flush always|every:<n>|os] \
     [--snapshot-every <records>] [--catch-up] [--join] \
     [--suspect-after <ms>] [--trust-after <ms>] [--no-failure-detector] \
     [--gc-every <ticks>] [--catch-up-chunk-bytes <bytes>] \
     [--metrics-every <ticks>] [--net-profile <spec>]";

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {flag}: {value:?}"))
}

/// Parses `--addrs`: positional `addr,...` (identifier = position) or
/// explicit `id=addr,...`, the form non-contiguous identifiers need.
fn parse_addrs(list: &str) -> Result<Vec<(ProcessId, SocketAddr)>, String> {
    let explicit = list.contains('=');
    list.split(',')
        .enumerate()
        .map(|(i, entry)| match entry.split_once('=') {
            Some((id, addr)) => Ok((number("--addrs", id)?, number("--addrs", addr)?)),
            None if !explicit => Ok((i as ProcessId + 1, number("--addrs", entry)?)),
            None => Err("--addrs mixes id=addr and positional entries".into()),
        })
        .collect()
}

/// Parses the flags (program name excluded) into the protocol to host and
/// the replica's configuration.
fn parse(args: impl IntoIterator<Item = String>) -> Result<(String, ReplicaConfig), String> {
    let mut options = ClusterOptions {
        flush_policy: FlushPolicy::default(),
        ..ClusterOptions::default()
    };
    let (mut id, mut f, mut nfr) = (0, 1, false);
    let mut addrs = Vec::new();
    let mut protocol = "atlas".to_string();
    let mut data_dir = None;
    let mut boot = Boot::Resume;
    let mut detector = true;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--id" => id = number(&flag, &value()?)?,
            "--f" => f = number(&flag, &value()?)?,
            "--protocol" => protocol = value()?,
            "--nfr" => nfr = true,
            "--addrs" => addrs = parse_addrs(&value()?)?,
            "--data-dir" => data_dir = Some(PathBuf::from(value()?)),
            "--flush" => {
                let spec = value()?;
                options.flush_policy =
                    FlushPolicy::parse(&spec).ok_or_else(|| format!("bad --flush: {spec:?}"))?
            }
            "--snapshot-every" => options.snapshot_every = number(&flag, &value()?)?,
            "--catch-up" if boot == Boot::Resume => boot = Boot::CatchUp,
            "--catch-up" => {}
            // A joiner has no configuration prefix of its own: catch-up is
            // how it reaches the `Enter` barrier that admits it.
            "--join" => boot = Boot::Join,
            "--suspect-after" => {
                options.suspect_after = Some(Duration::from_millis(number(&flag, &value()?)?))
            }
            "--trust-after" => {
                options.trust_after = Duration::from_millis(number(&flag, &value()?)?)
            }
            "--no-failure-detector" => detector = false,
            "--gc-every" => options.gc_every = number(&flag, &value()?)?,
            "--catch-up-chunk-bytes" => options.catch_up_chunk_bytes = number(&flag, &value()?)?,
            "--metrics-every" => options.metrics_every = number(&flag, &value()?)?,
            "--net-profile" => {
                let net =
                    NetProfile::parse(&value()?).map_err(|e| format!("bad --net-profile: {e}"))?;
                options.net = Some(net)
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !detector {
        options.suspect_after = None;
    }
    let n = addrs.len();
    let addrs: HashMap<ProcessId, SocketAddr> = addrs.into_iter().collect();
    if id == 0 || addrs.len() != n || !addrs.contains_key(&id) {
        return Err("--id must name one of the distinct --addrs entries".into());
    }
    let replica = ReplicaConfig {
        id,
        config: Config::new(n, f).with_nfr(nfr),
        addrs,
        data_dir,
        boot,
        options,
    };
    Ok((protocol, replica))
}

fn run<P>(cfg: ReplicaConfig)
where
    P: Protocol + Send + 'static,
    P::Message: Serialize + Deserialize + Send + 'static,
{
    let (n, f) = (cfg.config.n, cfg.config.f);
    let journal = match &cfg.data_dir {
        Some(dir) => format!("journaling to {}", dir.display()),
        None => "ephemeral".to_string(),
    };
    let rt = tokio::runtime::Runtime::new().expect("runtime");
    rt.block_on(async {
        let handle = replica::spawn::<P>(cfg).await.expect("replica spawn");
        println!(
            "{} replica {} listening on {} (n={n}, f={f}, {journal})",
            P::name(),
            handle.id,
            handle.addr,
        );
        // Serve until killed.
        loop {
            tokio::time::sleep(Duration::from_secs(3600)).await;
        }
    });
}

fn usage(error: &str) -> ! {
    eprintln!("{error}\n{USAGE}");
    exit(2);
}

fn main() {
    let (protocol, cfg) = parse(std::env::args().skip(1)).unwrap_or_else(|e| usage(&e));
    match protocol.as_str() {
        "atlas" => run::<atlas_protocol::Atlas>(cfg),
        "epaxos" => run::<epaxos::EPaxos>(cfg),
        "fpaxos" => run::<fpaxos::FPaxos>(cfg),
        "mencius" => run::<mencius::Mencius>(cfg),
        other => usage(&format!("unknown protocol {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADDRS: &str = "127.0.0.1:4001,127.0.0.1:4002,127.0.0.1:4003";

    fn parse_flags(flags: &str) -> Result<ReplicaConfig, String> {
        let args = format!("--id 2 --addrs {ADDRS} {flags}");
        parse(args.split_whitespace().map(String::from)).map(|(_, cfg)| cfg)
    }

    #[test]
    fn no_failure_detector_wins_in_either_order() {
        for flags in [
            "--no-failure-detector --suspect-after 800",
            "--suspect-after 800 --no-failure-detector",
        ] {
            assert_eq!(
                parse_flags(flags).unwrap().options.suspect_after,
                None,
                "{flags}"
            );
        }
        let on = parse_flags("--suspect-after 800").unwrap();
        assert_eq!(on.options.suspect_after, Some(Duration::from_millis(800)));
    }

    #[test]
    fn join_implies_catch_up_in_either_order() {
        assert_eq!(parse_flags("").unwrap().boot, Boot::Resume);
        assert_eq!(parse_flags("--catch-up").unwrap().boot, Boot::CatchUp);
        for flags in ["--join", "--join --catch-up", "--catch-up --join"] {
            assert_eq!(parse_flags(flags).unwrap().boot, Boot::Join, "{flags}");
        }
    }

    #[test]
    fn deployments_flush_every_64_records_and_keep_the_other_defaults() {
        let cfg = parse_flags("").unwrap();
        assert_eq!(cfg.options.flush_policy, FlushPolicy::EveryN(64));
        let defaults = ClusterOptions::default();
        assert_eq!(cfg.options.snapshot_every, defaults.snapshot_every);
        assert_eq!(cfg.options.suspect_after, defaults.suspect_after);
        assert_eq!(cfg.options.trust_after, defaults.trust_after);
        assert_eq!(
            cfg.options.catch_up_chunk_bytes,
            defaults.catch_up_chunk_bytes
        );
        assert_eq!(cfg.data_dir, None);
        assert_eq!(
            parse_flags("--flush os").unwrap().options.flush_policy,
            FlushPolicy::OsBuffered
        );
    }

    #[test]
    fn value_flags_override_their_defaults() {
        let cfg = parse_flags("--trust-after 120 --catch-up-chunk-bytes 2048").unwrap();
        assert_eq!(cfg.options.trust_after, Duration::from_millis(120));
        assert_eq!(cfg.options.catch_up_chunk_bytes, 2048);
        assert!(parse_flags("--trust-after").is_err(), "missing value");
        assert!(parse_flags("--trust-after soon").is_err());
        assert!(parse_flags("--bogus").is_err());
        // The executor-pool knob is gone: a script still passing it fails
        // loudly instead of running something else.
        assert_eq!(
            parse_flags("--shards 4").unwrap_err(),
            "unknown flag \"--shards\""
        );
    }

    #[test]
    fn addresses_are_positional_or_explicit() {
        let positional = parse_flags("").unwrap();
        assert_eq!((positional.id, positional.config.n), (2, 3));
        assert_eq!(positional.addrs[&3], "127.0.0.1:4003".parse().unwrap());

        let explicit = "--id 5 --addrs 1=127.0.0.1:4001,2=127.0.0.1:4002,5=127.0.0.1:4005";
        let (_, cfg) = parse(explicit.split_whitespace().map(String::from)).unwrap();
        let mut ids: Vec<ProcessId> = cfg.addrs.keys().copied().collect();
        ids.sort_unstable();
        assert_eq!(ids, [1, 2, 5]);
        assert_eq!(cfg.addrs[&5], "127.0.0.1:4005".parse().unwrap());

        let duplicate = "--id 1 --addrs 1=127.0.0.1:4001,1=127.0.0.1:4002,3=127.0.0.1:4003";
        assert!(parse(duplicate.split_whitespace().map(String::from)).is_err());
        let stranger = "--id 4 --addrs 127.0.0.1:4001,127.0.0.1:4002,127.0.0.1:4003";
        assert!(parse(stranger.split_whitespace().map(String::from)).is_err());
        let mixed = "--id 1 --addrs 127.0.0.1:4001,5=127.0.0.1:4005,127.0.0.1:4003";
        assert!(parse(mixed.split_whitespace().map(String::from)).is_err());
    }
}
