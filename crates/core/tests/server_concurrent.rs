//! Concurrent-session determinism: N client threads drive N distinct
//! sessions over one shared `StageCache`, and every result is
//! bit-identical to a one-shot serial analysis of the same netlist and
//! edit sequence with no cache at all. Caching and concurrency are
//! performance knobs — never result knobs.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use crystal::analyzer::AnalyzerOptions;
use crystal::fingerprint::{escape_json, hex64, parse_json_object};
use crystal::session::{Session, SessionConfig};
use crystal::tech::Technology;
use crystal::{serve, ServerOptions, StageCache};

const INVERTER_CHAIN: &str = "| two inverters\n\
i a\n\
o y\n\
n a m gnd 2 8\n\
p a m vdd 2 16\n\
C m 20\n\
n m y gnd 2 8\n\
p m y vdd 2 16\n\
C y 100\n";

const EDITS: [&str; 3] = ["cap y 150", "cap m 40", "cap y 220"];

const WORKERS: usize = 4;

fn request(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    line: &str,
) -> HashMap<String, String> {
    writer.write_all(line.as_bytes()).expect("send");
    writer.write_all(b"\n").expect("send newline");
    writer.flush().expect("flush");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    parse_json_object(response.trim_end())
        .unwrap_or_else(|| panic!("response is not flat JSON: {response}"))
}

/// `(session digest, [per-scenario label/digest pairs])` for one worker.
type WorkerResult = (String, Vec<(String, String)>);

fn drive_session(addr: std::net::SocketAddr, id: &str) -> WorkerResult {
    let mut writer = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
    writer.set_nodelay(true).ok();
    let mut reader = BufReader::new(writer.try_clone().expect("clone"));
    let open = format!(
        "{{\"op\":\"open\",\"session\":\"{id}\",\"name\":\"chain.sim\",\"netlist\":\"{}\"}}",
        escape_json(INVERTER_CHAIN)
    );
    let response = request(&mut reader, &mut writer, &open);
    assert_eq!(
        response.get("status").map(String::as_str),
        Some("ok"),
        "{id}: open failed: {response:?}"
    );
    for edit in EDITS {
        let line = format!("{{\"op\":\"edit\",\"session\":\"{id}\",\"script\":\"{edit}\"}}");
        let response = request(&mut reader, &mut writer, &line);
        assert_eq!(
            response.get("status").map(String::as_str),
            Some("ok"),
            "{id}: edit `{edit}` failed: {response:?}"
        );
    }
    let line = format!("{{\"op\":\"report\",\"session\":\"{id}\"}}");
    let response = request(&mut reader, &mut writer, &line);
    assert_eq!(
        response.get("status").map(String::as_str),
        Some("ok"),
        "{id}: report failed: {response:?}"
    );
    let digest = response.get("digest").expect("digest").clone();
    let scenarios: usize = response
        .get("scenarios")
        .expect("scenario count")
        .parse()
        .expect("integer scenario count");
    let mut rows = Vec::new();
    for index in 0..scenarios {
        rows.push((
            response
                .get(&format!("scenario.{index}.label"))
                .expect("label")
                .clone(),
            response
                .get(&format!("scenario.{index}.digest"))
                .expect("digest")
                .clone(),
        ));
    }
    (digest, rows)
}

#[test]
fn concurrent_cached_sessions_match_a_serial_uncached_run_bit_for_bit() {
    let cache = Arc::new(StageCache::new());
    let options = ServerOptions {
        max_sessions: WORKERS,
        max_inflight: WORKERS,
        cache: Some(cache.clone()),
        ..ServerOptions::default()
    };
    let handle = serve(options).expect("server starts");
    let addr = handle.addr();

    let workers: Vec<_> = (0..WORKERS)
        .map(|index| std::thread::spawn(move || drive_session(addr, &format!("worker{index}"))))
        .collect();
    let results: Vec<WorkerResult> = workers
        .into_iter()
        .map(|w| w.join().expect("worker thread completes"))
        .collect();

    // The serial reference: the same session semantics, no server, no
    // journal, no cache, single-threaded.
    let tech = Technology::nominal();
    let mut reference = Session::open(
        "reference",
        INVERTER_CHAIN,
        "chain.sim",
        &tech,
        &SessionConfig::default(),
        AnalyzerOptions::default(),
        None,
        &crystal::durable::JournalFaultPlan::none(),
    )
    .expect("serial reference opens");
    for edit in EDITS {
        reference
            .apply_script(edit, None)
            .expect("serial edit applies");
    }
    let expected_digest = hex64(reference.digest());
    let expected_rows: Vec<(String, String)> = reference
        .scenario_rows()
        .into_iter()
        .map(|(label, digest, _summary)| (label, hex64(digest)))
        .collect();

    for (index, (digest, rows)) in results.iter().enumerate() {
        assert_eq!(
            *digest, expected_digest,
            "worker{index}: session digest diverged from the serial run"
        );
        assert_eq!(
            *rows, expected_rows,
            "worker{index}: scenario digests diverged from the serial run"
        );
    }

    handle.stop();
    let stats = handle.join();
    assert_eq!(stats.sessions_opened, WORKERS as u64);
    assert_eq!(stats.panics, 0);
    assert_eq!(
        stats.shed, 0,
        "cap sized to the worker count; nothing sheds"
    );
    // The shared cache was actually exercised across sessions.
    let cache_stats = cache.stats();
    assert!(
        cache_stats.hits + cache_stats.misses > 0,
        "shared cache saw no traffic"
    );
}
