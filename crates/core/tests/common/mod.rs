//! Helpers shared by the tests that drive the built `crystal-cli`:
//! repository paths, signals, and spawning a daemon (or the chaos
//! proxy) and a scripted client.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const BIN: &str = env!("CARGO_BIN_EXE_crystal-cli");

pub const SIGTERM: i32 = 15;
pub const SIGKILL: i32 = 9;

/// A file of the repository, by its path from the root.
pub fn repo_file(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path)
}

/// Sends `signal` to `child`.
pub fn send_signal(child: &Child, signal: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let rc = unsafe { kill(child.id() as i32, signal) };
    assert_eq!(rc, 0, "kill({}, {signal}) failed", child.id());
}

/// Spawns `crystal-cli args` in `dir`, its stdout going to `{name}.log`
/// and its stderr to `{name}.err`.
fn spawn_logged(dir: &Path, name: &str, args: &[&str]) -> Child {
    Command::new(BIN)
        .current_dir(dir)
        .args(args)
        .stdout(fs::File::create(dir.join(format!("{name}.log"))).expect("log file"))
        .stderr(fs::File::create(dir.join(format!("{name}.err"))).expect("err file"))
        .spawn()
        .expect("crystal-cli spawns")
}

/// [`spawn_logged`], then waits until the child prints a line starting
/// with `prefix`. Returns the child and the first word after
/// the prefix (an address).
pub fn start_listener(dir: &Path, name: &str, args: &[&str], prefix: &str) -> (Child, String) {
    let (log, err) = (
        dir.join(format!("{name}.log")),
        dir.join(format!("{name}.err")),
    );
    let child = spawn_logged(dir, name, args);
    let deadline = Instant::now() + Duration::from_secs(30);
    let word = loop {
        let text = fs::read_to_string(&log).unwrap_or_default();
        let word = (text.lines())
            .find_map(|line| line.strip_prefix(prefix))
            .and_then(|rest| rest.split_whitespace().next());
        if let Some(word) = word {
            break word.to_string();
        }
        assert!(
            Instant::now() < deadline,
            "{name} never printed `{prefix}`: {}",
            fs::read_to_string(&err).unwrap_or_default()
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    (child, word)
}

/// `crystal-cli serve --addr 127.0.0.1:0 args` in `dir`, logging to
/// `serve.log`/`serve.err`; returns once it printed its address.
pub fn start_daemon(dir: &Path, args: &[&str]) -> (Child, String) {
    let mut serve = vec!["serve", "--addr", "127.0.0.1:0"];
    serve.extend(args);
    start_listener(dir, "serve", &serve, "crystal-cli: listening on ")
}

/// Writes `script` to `{name}.script` in `dir` and spawns
/// `client --addr addr extra --script` on it, its stdout going to
/// `{name}.txt`.
pub fn spawn_client(dir: &Path, addr: &str, name: &str, script: &str, extra: &[&str]) -> Child {
    let path = dir.join(format!("{name}.script"));
    fs::write(&path, script).expect("client script");
    Command::new(BIN)
        .current_dir(dir)
        .args(["client", "--addr", addr])
        .args(extra)
        .arg("--script")
        .arg(&path)
        .stdout(fs::File::create(dir.join(format!("{name}.txt"))).expect("client output"))
        .stderr(Stdio::inherit())
        .spawn()
        .expect("client spawns")
}

/// [`spawn_client`] run to a successful exit; returns what it printed.
pub fn client(dir: &Path, addr: &str, name: &str, script: &str, extra: &[&str]) -> String {
    let status = (spawn_client(dir, addr, name, script, extra).wait()).expect("client runs");
    let out = fs::read_to_string(dir.join(format!("{name}.txt"))).expect("client output");
    assert!(status.success(), "{name} exited {status:?}:\n{out}");
    out
}

/// A fresh, empty `name/` under `CARGO_TARGET_TMPDIR`.
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("test directory");
    dir
}
