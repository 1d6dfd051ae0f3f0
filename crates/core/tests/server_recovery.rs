//! Tests against the real `crystal-cli serve` binary: SIGKILL
//! mid-session then restart with `--resume` replays every journaled
//! session bit-identically, SIGTERM drains — the in-flight request
//! finishes and the process exits cleanly — and the real `client`
//! binary is not held back by Nagle's algorithm.

mod common;

use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use common::{send_signal, start_daemon, BIN, SIGKILL, SIGTERM};
use crystal::fingerprint::{escape_json, parse_json_object};

const INVERTER_CHAIN: &str = "| two inverters\n\
i a\n\
o y\n\
n a m gnd 2 8\n\
p a m vdd 2 16\n\
C m 20\n\
n m y gnd 2 8\n\
p m y vdd 2 16\n\
C y 100\n";

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crystal-server-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// `crystal-cli serve` in `dir` with its journals in `dir/journals`;
/// returns once it printed its address.
fn spawn_server(dir: &Path, extra: &[&str]) -> (Child, SocketAddr) {
    let mut args = vec!["--journal-dir", "journals"];
    args.extend(extra);
    let (child, addr) = start_daemon(dir, &args);
    (child, addr.parse().expect("socket address"))
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let stream = loop {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
            Ok(stream) => break stream,
            Err(e) => {
                assert!(Instant::now() < deadline, "cannot connect to daemon: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    stream.set_nodelay(true).ok();
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (reader, stream)
}

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
    assert!(!response.is_empty(), "daemon closed the connection");
    parse_json_object(response.trim_end())
        .unwrap_or_else(|| panic!("response is not flat JSON: {response}"))
}

fn ok(response: &HashMap<String, String>) -> &HashMap<String, String> {
    assert_eq!(
        response.get("status").map(String::as_str),
        Some("ok"),
        "expected ok: {response:?}"
    );
    response
}

#[test]
fn sigkill_then_resume_replays_sessions_bit_identically() {
    let dir = scratch_dir("sigkill-resume");
    let (mut child, addr) = spawn_server(&dir, &[]);
    let (mut reader, mut writer) = connect(addr);

    let open = format!(
        "{{\"op\":\"open\",\"session\":\"s1\",\"name\":\"chain.sim\",\"netlist\":\"{}\"}}",
        escape_json(INVERTER_CHAIN)
    );
    ok(&request(&mut reader, &mut writer, &open));
    for edit in ["cap y 150", "cap m 40"] {
        let line = format!("{{\"op\":\"edit\",\"session\":\"s1\",\"script\":\"{edit}\"}}");
        ok(&request(&mut reader, &mut writer, &line));
    }
    let before = request(
        &mut reader,
        &mut writer,
        "{\"op\":\"report\",\"session\":\"s1\"}",
    );
    ok(&before);

    // The journal fsync happens before each response, so everything the
    // client saw acknowledged must survive a SIGKILL.
    send_signal(&child, SIGKILL);
    child.wait().expect("killed daemon reaped");

    let (mut child, addr) = spawn_server(&dir, &["--resume"]);
    let (mut reader, mut writer) = connect(addr);
    let after = request(
        &mut reader,
        &mut writer,
        "{\"op\":\"report\",\"session\":\"s1\"}",
    );
    ok(&after);
    for key in ["digest", "edits", "scenarios"] {
        assert_eq!(
            before.get(key),
            after.get(key),
            "`{key}` changed across SIGKILL + --resume"
        );
    }
    for (key, value) in &before {
        if key.starts_with("scenario.") {
            assert_eq!(
                after.get(key),
                Some(value),
                "`{key}` changed across SIGKILL + --resume"
            );
        }
    }
    let stats = ok(&request(&mut reader, &mut writer, "{\"op\":\"stats\"}")).clone();
    assert_eq!(stats.get("recovered").map(String::as_str), Some("1"));
    assert_eq!(stats.get("recovery_failed").map(String::as_str), Some("0"));

    send_signal(&child, SIGTERM);
    let status = child.wait().expect("daemon reaped");
    assert!(status.success(), "drained daemon should exit 0: {status:?}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_mid_request_finishes_the_request_then_exits_cleanly() {
    let dir = scratch_dir("sigterm-drain");
    let (mut child, addr) = spawn_server(&dir, &["--chaos-ops"]);
    let (mut reader, mut writer) = connect(addr);

    writer
        .write_all(b"{\"op\":\"sleep\",\"ms\":\"500\"}\n")
        .expect("send sleep");
    writer.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(150));
    send_signal(&child, SIGTERM);

    // Drain contract: the in-flight request still completes and is
    // answered before the connection closes.
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    let response = parse_json_object(response.trim_end()).expect("flat JSON response");
    assert_eq!(response.get("status").map(String::as_str), Some("ok"));
    assert_eq!(response.get("slept_ms").map(String::as_str), Some("500"));

    let status = child.wait().expect("daemon reaped");
    assert!(status.success(), "drained daemon should exit 0: {status:?}");
    // And the listener is gone: no new connections after drain.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err());
    let _ = fs::remove_dir_all(&dir);
}

/// Each request must leave in one segment with `TCP_NODELAY`: a frame
/// written in two pieces waits for the daemon's delayed ACK, about 40 ms
/// per request on Linux.
#[test]
fn client_round_trips_are_not_delayed_by_nagle() {
    let dir = scratch_dir("client-nodelay");
    let (mut child, addr) = spawn_server(&dir, &[]);
    drop(connect(addr));

    let script = "ping\n".repeat(20);
    let started = Instant::now();
    let mut client = Command::new(BIN)
        .args(["client", "--addr", &addr.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("client spawns");
    client
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(script.as_bytes())
        .expect("script written");
    let Output { status, stdout, .. } = client.wait_with_output().expect("client runs");
    let elapsed = started.elapsed();
    send_signal(&child, SIGTERM);
    let _ = child.wait();
    let _ = fs::remove_dir_all(&dir);

    assert!(status.success(), "client failed: {status:?}");
    let stdout = String::from_utf8_lossy(&stdout);
    let answered = stdout.lines().filter(|l| l.contains("\"ok\"")).count();
    assert_eq!(answered, 20, "every ping answered: {stdout}");
    assert!(
        elapsed < Duration::from_millis(400),
        "20 pings took {elapsed:?}"
    );
}
