//! In-process protocol tests for `crystal::server`: the malformed
//! corpus through the upload path, the wire status taxonomy, admission
//! control (session cap and in-flight cap), panic isolation, and
//! graceful drain. Servers here use a *local* `ShutdownFlag` — never
//! `install_signal_handlers` — so tests cannot poison each other
//! through the process-global flag.

use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use crystal::fingerprint::{escape_json, parse_json_object};
use crystal::{serve, ServerHandle, ServerOptions};

const INVERTER_CHAIN: &str = "| two inverters\n\
i a\n\
o y\n\
n a m gnd 2 8\n\
p a m vdd 2 16\n\
C m 20\n\
n m y gnd 2 8\n\
p m y vdd 2 16\n\
C y 100\n";

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/netlists/malformed")
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect to test server");
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            reader,
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> HashMap<String, String> {
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        assert!(
            !response.is_empty(),
            "server closed the connection instead of responding"
        );
        parse_json_object(response.trim_end())
            .unwrap_or_else(|| panic!("response is not flat JSON: {response}"))
    }

    fn request(&mut self, line: &str) -> HashMap<String, String> {
        self.send(line);
        self.recv()
    }
}

fn open_request(session: &str, name: &str, netlist: &str) -> String {
    format!(
        "{{\"op\":\"open\",\"session\":\"{session}\",\"name\":\"{}\",\"netlist\":\"{}\"}}",
        escape_json(name),
        escape_json(netlist)
    )
}

/// A response's fields, sorted by key.
fn frame(response: &HashMap<String, String>) -> Vec<(&str, &str)> {
    let mut fields: Vec<(&str, &str)> = response
        .iter()
        .map(|(key, value)| (key.as_str(), value.as_str()))
        .collect();
    fields.sort();
    fields
}

fn status(response: &HashMap<String, String>) -> &str {
    response.get("status").map_or("<missing>", String::as_str)
}

#[test]
fn malformed_corpus_uploads_all_return_located_parse_errors() {
    let handle = serve(ServerOptions::default()).expect("server starts");
    let mut client = Client::connect(&handle);
    let mut checked = 0usize;
    for entry in fs::read_dir(corpus_dir()).expect("malformed corpus directory exists") {
        let path = entry.expect("readable entry").path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        // The upload path is .sim-only; hostile .sp/.tech text must
        // still come back as a located parse error, not a hang/panic.
        match path.extension().and_then(|e| e.to_str()) {
            Some("sim" | "sp" | "tech") => {}
            _ => continue,
        }
        let text = fs::read_to_string(&path).expect("readable corpus file");
        let response = client.request(&open_request("bad", &name, &text));
        assert_eq!(
            status(&response),
            "parse_error",
            "{name}: expected parse_error, got {response:?}"
        );
        let error = response.get("error").expect("error field");
        assert!(
            error.contains("line ") && error.contains("column "),
            "{name}: diagnostic lacks line/column: {error}"
        );
        assert_eq!(response.get("retryable").map(String::as_str), Some("false"));
        // The daemon must keep serving after each hostile upload.
        assert_eq!(status(&client.request("{\"op\":\"ping\"}")), "ok");
        checked += 1;
    }
    assert!(checked >= 13, "corpus shrank: only {checked} files checked");
    // No session leaked from any rejected upload.
    let stats = client.request("{\"op\":\"stats\"}");
    assert_eq!(stats.get("sessions").map(String::as_str), Some("0"));
    assert_eq!(stats.get("sessions_opened").map(String::as_str), Some("0"));
    handle.stop();
    handle.join();
}

#[test]
fn malformed_wire_frames_answer_errors_without_killing_the_daemon() {
    let handle = serve(ServerOptions::default()).expect("server starts");

    // Invalid UTF-8 bytes in a frame: decoded lossily, rejected as
    // not-JSON, and the connection keeps serving.
    let mut client = Client::connect(&handle);
    client
        .writer
        .write_all(b"\xff\xfe{\"op\":\"ping\"}\x80\n")
        .expect("send invalid utf-8");
    client.writer.flush().expect("flush");
    let response = client.recv();
    assert_eq!(status(&response), "parse_error", "got {response:?}");
    assert_eq!(response.get("retryable").map(String::as_str), Some("false"));
    assert_eq!(status(&client.request("{\"op\":\"ping\"}")), "ok");

    // Unterminated JSON: the newline ends the frame mid-object.
    let response = client.request("{\"op\":\"ping\"");
    assert_eq!(status(&response), "parse_error", "got {response:?}");
    assert_eq!(status(&client.request("{\"op\":\"ping\"}")), "ok");

    // Binary garbage before a valid frame: the garbage line errors, the
    // valid frame after it still answers.
    client
        .writer
        .write_all(b"\x00\x01\x02\xde\xad\xbe\xef\n{\"op\":\"ping\"}\n")
        .expect("send garbage then ping");
    client.writer.flush().expect("flush");
    let response = client.recv();
    assert_eq!(status(&response), "parse_error", "got {response:?}");
    let response = client.recv();
    assert_eq!(status(&response), "ok", "got {response:?}");

    // Oversized frame (no newline until past the cap): answered with a
    // located parse_error, then the connection is cut to stop the flood.
    let mut hostile = Client::connect(&handle);
    let chunk = vec![b'a'; 64 * 1024];
    let mut sent = 0usize;
    while sent <= crystal::server::MAX_REQUEST_BYTES {
        if hostile.writer.write_all(&chunk).is_err() {
            break; // The server may already have cut us off mid-flood.
        }
        sent += chunk.len();
    }
    let _ = hostile.writer.flush();
    let mut response = String::new();
    if hostile.reader.read_line(&mut response).is_ok() && !response.is_empty() {
        let response = parse_json_object(response.trim_end()).expect("flat JSON");
        assert_eq!(status(&response), "parse_error", "got {response:?}");
        assert!(
            response
                .get("error")
                .is_some_and(|e| e.contains("size limit")),
            "got {response:?}"
        );
    }

    // The daemon survived all of it with no leaked sessions.
    let mut fresh = Client::connect(&handle);
    let stats = fresh.request("{\"op\":\"stats\"}");
    assert_eq!(status(&stats), "ok");
    assert_eq!(stats.get("sessions").map(String::as_str), Some("0"));
    assert_eq!(stats.get("sessions_opened").map(String::as_str), Some("0"));
    let parse_errors: u64 = stats
        .get("parse_errors")
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    assert!(parse_errors >= 3, "got {stats:?}");

    handle.stop();
    handle.join();
}

#[test]
fn wire_taxonomy_distinguishes_retryable_from_fatal() {
    let options = ServerOptions {
        max_sessions: 1,
        ..ServerOptions::default()
    };
    let handle = serve(options).expect("server starts");
    let mut client = Client::connect(&handle);

    // Not JSON at all → parse_error, fatal.
    let response = client.request("this is not json");
    assert_eq!(status(&response), "parse_error");
    assert_eq!(response.get("retryable").map(String::as_str), Some("false"));

    // Unknown op and missing fields → error, fatal.
    assert_eq!(status(&client.request("{\"op\":\"frobnicate\"}")), "error");
    assert_eq!(status(&client.request("{\"op\":\"open\"}")), "error");
    assert_eq!(
        status(&client.request("{\"op\":\"edit\",\"session\":\"nope\",\"script\":\"cap y 1\"}")),
        "error"
    );

    // A starved budget → budget, fatal (retrying cannot help).
    let mut open = open_request("b", "chain.sim", INVERTER_CHAIN);
    open.truncate(open.len() - 1);
    open.push_str(",\"max_stage_evals\":\"1\"}");
    let response = client.request(&open);
    assert_eq!(status(&response), "budget", "got {response:?}");
    assert_eq!(response.get("retryable").map(String::as_str), Some("false"));

    // deadline_ms=0 pre-cancels: deterministic timeout, retryable.
    let mut open = open_request("t", "chain.sim", INVERTER_CHAIN);
    open.truncate(open.len() - 1);
    open.push_str(",\"deadline_ms\":\"0\"}");
    let response = client.request(&open);
    assert_eq!(status(&response), "timeout", "got {response:?}");
    assert_eq!(response.get("retryable").map(String::as_str), Some("true"));

    // Neither failed open occupied the single session slot.
    let response = client.request(&open_request("s1", "chain.sim", INVERTER_CHAIN));
    assert_eq!(status(&response), "ok", "got {response:?}");

    // Session cap exceeded → overloaded, retryable (a slot may free up).
    let response = client.request(&open_request("s2", "chain.sim", INVERTER_CHAIN));
    assert_eq!(status(&response), "overloaded", "got {response:?}");
    assert_eq!(response.get("retryable").map(String::as_str), Some("true"));

    // Closing the session frees the slot: the retry then succeeds.
    assert_eq!(
        status(&client.request("{\"op\":\"close\",\"session\":\"s1\"}")),
        "ok"
    );
    let response = client.request(&open_request("s2", "chain.sim", INVERTER_CHAIN));
    assert_eq!(status(&response), "ok", "got {response:?}");

    // Correlation ids are echoed back verbatim.
    let response = client.request("{\"op\":\"ping\",\"id\":\"req-42\"}");
    assert_eq!(response.get("id").map(String::as_str), Some("req-42"));

    handle.stop();
    let stats = handle.join();
    assert!(stats.cancelled >= 1, "timeout should count as cancelled");
}

#[test]
fn inflight_cap_sheds_load_instead_of_queueing() {
    let options = ServerOptions {
        max_inflight: 1,
        chaos_ops: true,
        ..ServerOptions::default()
    };
    let handle = serve(options).expect("server starts");

    let mut slow = Client::connect(&handle);
    slow.send("{\"op\":\"sleep\",\"ms\":\"600\"}");
    std::thread::sleep(Duration::from_millis(150));

    // The slot is held by the sleeper: work is shed, never queued.
    let mut fast = Client::connect(&handle);
    let response = fast.request(&open_request("s1", "chain.sim", INVERTER_CHAIN));
    assert_eq!(status(&response), "overloaded", "got {response:?}");
    assert_eq!(response.get("retryable").map(String::as_str), Some("true"));

    // Ungated ops keep responding under full load.
    assert_eq!(status(&fast.request("{\"op\":\"ping\"}")), "ok");

    // Once the sleeper finishes, the same request is admitted.
    let response = slow.recv();
    assert_eq!(status(&response), "ok", "got {response:?}");
    let response = fast.request(&open_request("s1", "chain.sim", INVERTER_CHAIN));
    assert_eq!(status(&response), "ok", "got {response:?}");

    handle.stop();
    let stats = handle.join();
    assert!(stats.shed >= 1, "expected at least one shed request");
}

#[test]
fn a_panicking_request_poisons_only_its_session() {
    let options = ServerOptions {
        chaos_ops: true,
        ..ServerOptions::default()
    };
    let handle = serve(options).expect("server starts");
    let mut client = Client::connect(&handle);
    assert_eq!(
        status(&client.request(&open_request("victim", "chain.sim", INVERTER_CHAIN))),
        "ok"
    );
    assert_eq!(
        status(&client.request(&open_request("bystander", "chain.sim", INVERTER_CHAIN))),
        "ok"
    );

    let response = client.request("{\"op\":\"crash\",\"session\":\"victim\"}");
    assert_eq!(status(&response), "poisoned", "got {response:?}");
    assert_eq!(response.get("retryable").map(String::as_str), Some("false"));

    // The victim refuses further work; the bystander and the daemon
    // itself are untouched.
    let response = client.request("{\"op\":\"report\",\"session\":\"victim\"}");
    assert_eq!(status(&response), "poisoned", "got {response:?}");
    let response = client.request("{\"op\":\"report\",\"session\":\"bystander\"}");
    assert_eq!(status(&response), "ok", "got {response:?}");
    assert_eq!(status(&client.request("{\"op\":\"ping\"}")), "ok");

    handle.stop();
    let stats = handle.join();
    assert_eq!(stats.panics, 1);
}

#[test]
fn drain_finishes_inflight_work_and_interrupts_the_rest() {
    let options = ServerOptions {
        chaos_ops: true,
        ..ServerOptions::default()
    };
    let handle = serve(options).expect("server starts");
    let mut client = Client::connect(&handle);

    // Three buffered requests: the sleep is in flight when the drain
    // starts, the open arrives during it, and ping is ungated. The
    // drain contract: in-flight work finishes, later gated work is
    // interrupted (retryable), ungated ops still answer.
    let open = open_request("late", "chain.sim", INVERTER_CHAIN);
    let script = format!("{{\"op\":\"sleep\",\"ms\":\"400\"}}\n{open}\n{{\"op\":\"ping\"}}\n");
    client.writer.write_all(script.as_bytes()).expect("send");
    client.writer.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(100));
    handle.stop();

    let response = client.recv();
    assert_eq!(status(&response), "ok", "sleep should finish: {response:?}");
    assert_eq!(response.get("slept_ms").map(String::as_str), Some("400"));
    let response = client.recv();
    assert_eq!(status(&response), "interrupted", "got {response:?}");
    assert_eq!(response.get("retryable").map(String::as_str), Some("true"));
    let response = client.recv();
    assert_eq!(status(&response), "ok", "ping is ungated: {response:?}");

    // join() returning proves the daemon exits instead of hanging, and
    // the dropped listener then refuses new connections.
    let addr = handle.addr();
    let stats = handle.join();
    assert!(stats.interrupted >= 1);
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "drained server still accepts connections"
    );
}

#[test]
fn history_and_diff_require_a_run_database() {
    let handle = serve(ServerOptions::default()).expect("server starts");
    let mut client = Client::connect(&handle);
    let response = client.request("{\"op\":\"history\"}");
    assert_eq!(status(&response), "error", "got {response:?}");
    assert!(
        response
            .get("error")
            .is_some_and(|e| e.contains("--run-db")),
        "got {response:?}"
    );
    let response = client.request("{\"op\":\"diff\",\"a\":\"x\",\"b\":\"y\"}");
    assert_eq!(status(&response), "error", "got {response:?}");
    handle.stop();
    handle.join();
}

#[test]
fn history_lists_runs_and_diff_gates_on_thresholds() {
    use crystal::runstore::{self, RunStore};

    // Seed a run database with a clean pair and an injected 2x-fault
    // record, exactly what `crystal-cli batch --run-db` writes.
    let db = std::env::temp_dir().join(format!("crystal_server_rundb_{}", std::process::id()));
    let _ = fs::remove_dir_all(&db);
    let net = mosnet::sim_format::parse(INVERTER_CHAIN, "chain").expect("fixture parses");
    let tech = crystal::tech::Technology::nominal();
    let store = RunStore::open(&db).expect("store opens");
    let mut ids = Vec::new();
    for inject in [None, None, Some((crystal::ModelKind::Slope, 2.0))] {
        let mut record = runstore::RunRecord::new(runstore::new_meta("batch", 0, "slope", 1));
        for (label, scenario) in crystal::selfcheck::standard_scenarios(
            &net,
            &HashMap::new(),
            mosnet::units::Seconds::ZERO,
        ) {
            let result = crystal::analyze(&net, &tech, crystal::ModelKind::Slope, &scenario)
                .expect("analysis succeeds");
            let rows = runstore::arrival_rows(&net, &label, &result, inject);
            record.scenarios.push(runstore::ScenarioRow {
                label,
                outcome: "ok".to_string(),
                digest: Some(runstore::arrival_digest(&rows)),
                summary: crystal::durable::scenario_summary(&net, &result),
                wall_us: 0,
                oversubscribed: false,
            });
            record.arrivals.extend(rows);
        }
        record.exit = Some(runstore::ExitRow {
            status: "ok".to_string(),
            code: 0,
            wall_us: 1,
        });
        store.record(&record).expect("record writes");
        ids.push(record.meta.id.clone());
    }

    let options = ServerOptions {
        run_db: Some(db.clone()),
        ..ServerOptions::default()
    };
    let handle = serve(options).expect("server starts");
    let mut client = Client::connect(&handle);

    let response = client.request("{\"op\":\"history\"}");
    assert_eq!(status(&response), "ok", "got {response:?}");
    assert_eq!(response.get("runs").map(String::as_str), Some("3"));
    for index in 0..3 {
        assert_eq!(
            response
                .get(&format!("run.{index}.command"))
                .map(String::as_str),
            Some("batch"),
            "got {response:?}"
        );
        assert_eq!(
            response
                .get(&format!("run.{index}.complete"))
                .map(String::as_str),
            Some("true"),
            "got {response:?}"
        );
    }

    // Identical runs diff clean even under a tight timing threshold.
    let response = client.request(&format!(
        "{{\"op\":\"diff\",\"a\":\"{}\",\"b\":\"{}\",\"fail_on_timing_pct\":\"0.5\"}}",
        ids[0], ids[1]
    ));
    assert_eq!(status(&response), "ok", "got {response:?}");
    assert_eq!(response.get("verdict").map(String::as_str), Some("clean"));
    assert_eq!(
        response.get("digest_mismatches").map(String::as_str),
        Some("0")
    );

    // The injected run trips the timing gate: divergence on the wire.
    let response = client.request(&format!(
        "{{\"op\":\"diff\",\"a\":\"{}\",\"b\":\"{}\",\"fail_on_timing_pct\":\"0.5\"}}",
        ids[0], ids[2]
    ));
    assert_eq!(status(&response), "divergence", "got {response:?}");
    assert_eq!(
        response.get("verdict").map(String::as_str),
        Some("timing_regression")
    );
    assert!(
        response
            .get("digest_mismatches")
            .is_some_and(|n| n.parse::<u64>().unwrap_or(0) > 0),
        "got {response:?}"
    );

    // Without thresholds the same pair reports but does not gate.
    let response = client.request(&format!(
        "{{\"op\":\"diff\",\"a\":\"{}\",\"b\":\"{}\"}}",
        ids[0], ids[2]
    ));
    assert_eq!(status(&response), "ok", "got {response:?}");

    // Unknown specs answer with a plain error, not a hang or crash.
    let response = client.request("{\"op\":\"diff\",\"a\":\"run-nope\",\"b\":\"run-nada\"}");
    assert_eq!(status(&response), "error", "got {response:?}");

    handle.stop();
    handle.join();
    let _ = fs::remove_dir_all(&db);
}

#[test]
fn batch_audits_the_session_against_fresh_analysis() {
    let handle = serve(ServerOptions::default()).expect("server starts");
    let mut client = Client::connect(&handle);
    let response = client.request(&open_request("s1", "chain.sim", INVERTER_CHAIN));
    assert_eq!(status(&response), "ok", "got {response:?}");
    let mut digest = String::new();
    for script in ["cap y 150", "resize a m gnd 4 8"] {
        let line = format!("{{\"op\":\"edit\",\"session\":\"s1\",\"script\":\"{script}\"}}");
        let response = client.request(&line);
        assert_eq!(status(&response), "ok", "got {response:?}");
        digest = response["digest"].clone();
    }

    // A clean audit: every scenario re-analyzed fresh matches the
    // session, and the frame carries the last edit's digest.
    let response = client.request("{\"op\":\"batch\",\"session\":\"s1\"}");
    assert_eq!(
        frame(&response),
        [
            ("digest", digest.as_str()),
            ("retryable", "false"),
            ("scenarios", "2"),
            ("session", "s1"),
            ("status", "ok"),
        ],
        "got {response:?}"
    );

    // The request's budget binds the fresh re-analysis.
    let response = client.request("{\"op\":\"batch\",\"session\":\"s1\",\"max_stage_evals\":1}");
    assert_eq!(
        frame(&response),
        [
            (
                "error",
                "analysis budget exhausted (stage-evaluation cap of 1 reached); \
                 partial result carries 1 arrivals from 0 completed rounds"
            ),
            ("retryable", "false"),
            ("status", "budget"),
        ],
        "got {response:?}"
    );

    let response = client.request("{\"op\":\"batch\",\"session\":\"nope\"}");
    assert_eq!(
        frame(&response),
        [
            ("error", "unknown session `nope`"),
            ("retryable", "false"),
            ("status", "error"),
        ],
        "got {response:?}"
    );
    handle.stop();
    handle.join();
}
