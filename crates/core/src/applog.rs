//! The append-only JSON-lines log under every durable store: the batch
//! journal ([`crate::durable`]), the daemon's session journals
//! ([`crate::session`]) and the run records ([`crate::runstore`]).
//!
//! A log is one file of flat JSON objects, one per line, in the
//! [`crate::fingerprint`] codec. Line 1 is a header whose `kind` names
//! the store; every later line is one record. An append is one
//! `write_all` plus one `sync_data`, so a crash loses at most the line
//! being written. [`recover`] applies the one recovery contract:
//!
//! * only the **final** line may be damaged — unterminated, unparseable,
//!   or rejected by the store's record decoder. That is a torn tail (a
//!   crash mid-append) and is dropped;
//! * damage on any earlier line is [`LogFault::Corrupt`] at its 1-based
//!   line, and so is a line 1 of the wrong `kind`;
//! * a missing file is [`LogFault::Io`] with [`ErrorKind::NotFound`]; a
//!   file with no complete header line — empty, or a header torn
//!   mid-write — is [`LogFault::NoHeader`].
//!
//! [`AppendLog`] is the one lifecycle every store shares: create with a
//! header, resume (recover, the store's check, then truncate to the
//! valid prefix, so a failed resume leaves the file untouched), append,
//! and compaction's atomic [`AppendLog::replace`]. Record codecs, header
//! checks and error types stay with each store: this module knows
//! lines, not records.

use crate::fingerprint::{parse_json_object, ReadFields};
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// The fields of one log line, as [`parse_json_object`] returns them;
/// read them through [`crate::fingerprint::ReadFields`].
pub type Fields = HashMap<String, String>;

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A disk-fault injection plan threaded through journal I/O.
///
/// Cloned handles share one countdown, so a plan armed once covers the
/// whole daemon. `fail_writes_after(n)` lets the next `n` journal
/// writes succeed, then fails subsequent ones (likewise
/// `fail_syncs_after(n)` for fsync); `fail_count(m)` bounds how many
/// injected failures fire in total (default: unlimited), which lets a
/// drill degrade exactly one session while its siblings keep
/// journaling. The default plan never fires and costs one relaxed
/// atomic load per check, so production paths run it unconditionally —
/// fault drills exercise the *exact* production code, not a test
/// double.
#[derive(Clone, Debug, Default)]
pub struct JournalFaultPlan {
    inner: Arc<FaultInner>,
}

#[derive(Debug)]
struct FaultInner {
    writes_before_failure: AtomicI64,
    syncs_before_failure: AtomicI64,
    failures_remaining: AtomicI64,
}

impl Default for FaultInner {
    fn default() -> FaultInner {
        FaultInner {
            writes_before_failure: AtomicI64::new(i64::MAX),
            syncs_before_failure: AtomicI64::new(i64::MAX),
            failures_remaining: AtomicI64::new(i64::MAX),
        }
    }
}

impl JournalFaultPlan {
    /// A plan that never injects a fault.
    pub fn none() -> JournalFaultPlan {
        JournalFaultPlan::default()
    }

    /// Arms the plan: the next `n` checked writes succeed, later ones
    /// fail (until the [`JournalFaultPlan::fail_count`] budget runs dry).
    pub fn fail_writes_after(self, n: u64) -> JournalFaultPlan {
        self.inner
            .writes_before_failure
            .store(n.min(i64::MAX as u64) as i64, Ordering::Relaxed);
        self
    }

    /// Arms the plan: the next `n` checked fsyncs succeed, later ones fail.
    pub fn fail_syncs_after(self, n: u64) -> JournalFaultPlan {
        self.inner
            .syncs_before_failure
            .store(n.min(i64::MAX as u64) as i64, Ordering::Relaxed);
        self
    }

    /// Caps the total number of injected failures (write and sync
    /// combined); after `m` faults the plan goes quiet and I/O heals.
    pub fn fail_count(self, m: u64) -> JournalFaultPlan {
        self.inner
            .failures_remaining
            .store(m.min(i64::MAX as u64) as i64, Ordering::Relaxed);
        self
    }

    fn check(&self, budget: &AtomicI64, what: &str, path: &Path) -> std::io::Result<()> {
        if budget.load(Ordering::Relaxed) == i64::MAX {
            return Ok(());
        }
        if budget.fetch_sub(1, Ordering::Relaxed) > 0 {
            return Ok(());
        }
        // The per-operation budget is exhausted; spend one failure from
        // the total cap (if it has one).
        let remaining = &self.inner.failures_remaining;
        if remaining.load(Ordering::Relaxed) != i64::MAX
            && remaining.fetch_sub(1, Ordering::Relaxed) <= 0
        {
            return Ok(());
        }
        Err(std::io::Error::other(format!(
            "injected {what} fault on `{}`",
            path.display()
        )))
    }

    /// Point of injection for a journal write. Call before `write_all`.
    fn check_write(&self, path: &Path) -> std::io::Result<()> {
        self.check(&self.inner.writes_before_failure, "write", path)
    }

    /// Point of injection for a journal fsync. Call before `sync_data`.
    fn check_sync(&self, path: &Path) -> std::io::Result<()> {
        self.check(&self.inner.syncs_before_failure, "fsync", path)
    }
}

/// Atomically replaces `path` with `bytes`: write `{path}.tmp`, fsync
/// it, rename it over `path`, fsync the directory. The fault plan is
/// checked at the write and fsync points.
fn atomic_replace(path: &Path, bytes: &[u8], faults: &JournalFaultPlan) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    faults.check_write(&tmp)?;
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    faults.check_sync(&tmp)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(dir) = File::open(dir) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// Why a log operation on `path` failed. Each store maps it into its
/// own error type; `Display` gives the reason without the path.
#[derive(Debug)]
pub struct LogError {
    /// The log's path.
    pub path: PathBuf,
    /// What went wrong.
    pub fault: LogFault,
}

/// The reason inside a [`LogError`].
#[derive(Debug)]
pub enum LogFault {
    /// I/O failed; a missing file is [`ErrorKind::NotFound`].
    Io(std::io::Error),
    /// The first damaged line (1-based) before the final one, or a line 1
    /// of the wrong `kind`.
    Corrupt(usize),
    /// No complete header line: the file is empty, or its header is torn.
    NoHeader,
}

impl LogError {
    fn new(path: &Path, fault: LogFault) -> LogError {
        let path = path.to_path_buf();
        LogError { path, fault }
    }

    /// A missing file, or one with no complete header line.
    fn headerless(&self) -> bool {
        match &self.fault {
            LogFault::Io(e) => e.kind() == ErrorKind::NotFound,
            LogFault::Corrupt(_) => false,
            LogFault::NoHeader => true,
        }
    }
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.fault {
            LogFault::Io(error) => write!(f, "{error}"),
            LogFault::Corrupt(line) => write!(f, "damaged at line {line}"),
            LogFault::NoHeader => f.write_str("no complete header line"),
        }
    }
}

/// The valid prefix of a log.
#[derive(Debug)]
pub struct Recovered<R> {
    /// The header line's fields.
    pub header: Fields,
    /// The decoded records after the header, in file order.
    pub records: Vec<R>,
    /// Byte length of the valid prefix.
    pub valid_len: usize,
}

/// An open log, positioned at its end for appending.
#[derive(Debug)]
pub struct AppendLog {
    file: File,
    path: PathBuf,
    faults: JournalFaultPlan,
}

impl AppendLog {
    /// Creates `path`, truncating any existing file, and appends `header`.
    pub fn create(
        path: &Path,
        header: &str,
        faults: &JournalFaultPlan,
    ) -> Result<AppendLog, LogError> {
        AppendLog::start(File::create(path), path, header, faults)
    }

    /// Like [`AppendLog::create`], but fails if `path` already exists, so
    /// two writers racing on one name cannot silently share a file.
    pub fn create_new(
        path: &Path,
        header: &str,
        faults: &JournalFaultPlan,
    ) -> Result<AppendLog, LogError> {
        let file = OpenOptions::new().write(true).create_new(true).open(path);
        AppendLog::start(file, path, header, faults)
    }

    fn start(
        file: std::io::Result<File>,
        path: &Path,
        header: &str,
        faults: &JournalFaultPlan,
    ) -> Result<AppendLog, LogError> {
        let mut log = AppendLog {
            file: file.map_err(|e| LogError::new(path, LogFault::Io(e)))?,
            path: path.to_path_buf(),
            faults: faults.clone(),
        };
        log.append(header)?;
        Ok(log)
    }

    /// Resumes the log at `path`, in this order: [`recover`] its valid
    /// prefix (`record` decodes each line after the header, `None` when
    /// it does not decode), hand that to the store's `check`, and only
    /// when both pass truncate the file to the valid prefix and open it
    /// for appending. A resume that fails leaves the file untouched.
    ///
    /// A missing file, or one with no complete header line, starts over
    /// with `fresh_header` when the store supplies one: `check` then sees
    /// that header and no records. Without one it is the recovery error.
    pub fn resume<R, T, E: From<LogError>>(
        path: &Path,
        header_kind: &str,
        fresh_header: Option<&str>,
        faults: &JournalFaultPlan,
        record: impl FnMut(Fields) -> Option<R>,
        check: impl FnOnce(Recovered<R>) -> Result<T, E>,
    ) -> Result<(AppendLog, T), E> {
        let recovered = recover(path, header_kind, record);
        let fresh_header =
            fresh_header.filter(|_| recovered.as_ref().is_err_and(|e| e.headerless()));
        let recovered = match fresh_header {
            Some(header) => Recovered {
                header: parse_json_object(header.trim_end()).unwrap_or_default(),
                records: Vec::new(),
                valid_len: 0,
            },
            None => recovered?,
        };
        let valid_len = recovered.valid_len;
        let checked = check(recovered)?;
        let log = match fresh_header {
            Some(header) => AppendLog::create(path, header, faults)?,
            None => AppendLog {
                file: open_at(path, valid_len).map_err(|e| LogError::new(path, LogFault::Io(e)))?,
                path: path.to_path_buf(),
                faults: faults.clone(),
            },
        };
        Ok((log, checked))
    }

    /// Appends `text` (whole lines, each ending in `\n`) with one write
    /// and one `sync_data`, so it survives a crash right after. The
    /// fault plan is checked before each.
    pub fn append(&mut self, text: &str) -> Result<(), LogError> {
        self.faults
            .check_write(&self.path)
            .and_then(|()| self.file.write_all(text.as_bytes()))
            .and_then(|()| self.faults.check_sync(&self.path))
            .and_then(|()| self.file.sync_data())
            .map_err(|e| LogError::new(&self.path, LogFault::Io(e)))
    }

    /// Replaces the whole log with `text` (write `{path}.tmp`, fsync,
    /// rename, fsync the directory) and appends after it from then on:
    /// compaction's rewrite. A crash at any byte leaves the old log or the
    /// new one, never a mix.
    pub fn replace(&mut self, text: &str) -> Result<(), LogError> {
        atomic_replace(&self.path, text.as_bytes(), &self.faults)
            .and_then(|()| open_at(&self.path, text.len()))
            .map(|file| self.file = file)
            .map_err(|e| LogError::new(&self.path, LogFault::Io(e)))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Opens `path` (creating it if missing), truncated to its first `len`
/// bytes and positioned at the end.
fn open_at(path: &Path, len: usize) -> std::io::Result<File> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    file.set_len(len as u64)?;
    file.seek(SeekFrom::End(0))?;
    Ok(file)
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Reads the log at `path` and finds its valid prefix (see the
/// [module docs](self) for the rules). Line 1 must have
/// `"kind":header_kind`; every later parsed line goes to `record`, which
/// returns `None` when the line does not decode. The file itself is not
/// changed — [`AppendLog::resume`] truncates.
pub fn recover<R>(
    path: &Path,
    header_kind: &str,
    mut record: impl FnMut(Fields) -> Option<R>,
) -> Result<Recovered<R>, LogError> {
    let bytes = std::fs::read(path).map_err(|e| match e.kind() {
        // Platform-neutral text for a missing log: "entity not found".
        ErrorKind::NotFound => LogError::new(path, LogFault::Io(ErrorKind::NotFound.into())),
        _ => LogError::new(path, LogFault::Io(e)),
    })?;
    let corrupt = |line| LogError::new(path, LogFault::Corrupt(line));
    let text = String::from_utf8_lossy(&bytes);
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let mut header = None;
    let mut records = Vec::new();
    let mut valid_len = 0;
    for (index, raw) in lines.iter().enumerate() {
        let fields = raw
            .strip_suffix('\n')
            .and_then(|line| parse_json_object(line.trim_end_matches('\r')));
        let kept = match fields {
            None => false,
            Some(fields) if index == 0 => {
                if fields.str("kind") != Some(header_kind) {
                    return Err(corrupt(1));
                }
                header = Some(fields);
                true
            }
            Some(fields) => record(fields).map(|r| records.push(r)).is_some(),
        };
        if !kept {
            if index + 1 < lines.len() {
                return Err(corrupt(index + 1));
            }
            break; // the torn tail
        }
        valid_len += raw.len();
    }
    Ok(Recovered {
        header: header.ok_or_else(|| LogError::new(path, LogFault::NoHeader))?,
        records,
        valid_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "crystal_applog_{name}_{}_{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    const LOG: &str = "{\"kind\":\"h\"}\n{\"n\":\"1\"}\n{\"n\":\"2\"}\n";

    fn n(fields: Fields) -> Option<String> {
        fields.get("n").cloned()
    }

    #[test]
    fn every_cut_recovers_its_complete_prefix() {
        let path = temp_log("cuts");
        let header_end = LOG.find('\n').expect("header") + 1;
        for cut in 0..=LOG.len() {
            std::fs::write(&path, &LOG[..cut]).expect("writes");
            let result = recover(&path, "h", n);
            if cut < header_end {
                assert!(
                    matches!(
                        result,
                        Err(LogError {
                            fault: LogFault::NoHeader,
                            ..
                        })
                    ),
                    "cut {cut}"
                );
                continue;
            }
            let recovered = result.expect("recovers");
            let complete = LOG[..cut].matches('\n').count();
            assert_eq!(recovered.records.len(), complete - 1, "cut {cut}");
            assert!(LOG[..cut].starts_with(&LOG[..recovered.valid_len]));
            assert!(LOG[..recovered.valid_len].ends_with('\n'));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn damage_before_the_tail_and_foreign_headers_are_corrupt() {
        let path = temp_log("corrupt");
        let cases = [
            ("{\"kind\":\"h\"}\n{\"x\":\"1\"}\n{\"n\":\"2\"}\n", 2),
            ("{\"kind\":\"h\"}\n{\"n\":\"1\"\n{\"n\":\"2\"}\n", 2),
            ("{\"kind\":\"other\"}\n", 1),
            ("garbage\n{\"n\":\"1\"}\n", 1),
        ];
        for (text, line) in cases {
            std::fs::write(&path, text).expect("writes");
            let result = recover(&path, "h", n);
            assert!(
                matches!(result, Err(LogError { fault: LogFault::Corrupt(l), .. }) if l == line),
                "{text:?}: {result:?}"
            );
        }
        // An undecodable *final* line is a torn tail, not corruption.
        std::fs::write(&path, "{\"kind\":\"h\"}\n{\"x\":\"1\"}\n").expect("writes");
        let recovered = recover(&path, "h", n).expect("torn tail recovers");
        assert!(recovered.records.is_empty());
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            recover(&path, "h", n),
            Err(LogError { fault: LogFault::Io(e), .. }) if e.kind() == ErrorKind::NotFound
        ));
    }

    #[test]
    fn reopen_truncates_to_the_valid_prefix_and_appends() {
        let path = temp_log("reopen");
        let faults = JournalFaultPlan::none();
        std::fs::write(&path, &LOG[..LOG.len() - 3]).expect("writes torn log");
        let resume = |fresh| {
            AppendLog::resume(&path, "h", fresh, &faults, n, |recovered| {
                Ok::<_, LogError>(recovered.records)
            })
        };
        let (mut log, ns) = resume(None).expect("resumes");
        assert_eq!(ns, ["1"]);
        log.append("{\"n\":\"2\"}\n").expect("appends");
        assert_eq!(std::fs::read_to_string(&path).expect("reads"), LOG);
        // No header: an error without a fresh one, a new log with it.
        std::fs::write(&path, "{\"ki").expect("writes torn header");
        assert!(matches!(
            resume(None),
            Err(LogError {
                fault: LogFault::NoHeader,
                ..
            })
        ));
        assert_eq!(std::fs::read(&path).expect("reads"), b"{\"ki");
        let fresh = "{\"kind\":\"h\"}\n";
        let (_, ns) = resume(Some(fresh)).expect("starts over");
        assert!(ns.is_empty());
        assert_eq!(std::fs::read_to_string(&path).expect("reads"), fresh);
        // A failed check leaves the file as it was.
        std::fs::write(&path, LOG).expect("writes");
        let failed = AppendLog::resume(&path, "h", None, &faults, n, |_| {
            Err::<(), _>(LogError::new(&path, LogFault::NoHeader))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read_to_string(&path).expect("reads"), LOG);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replace_rewrites_the_log_and_appends_after_it() {
        let path = temp_log("replace");
        let mut log = AppendLog::create(&path, LOG, &JournalFaultPlan::none()).expect("creates");
        log.replace("{\"kind\":\"h\"}\n").expect("replaces");
        log.append("{\"n\":\"3\"}\n").expect("appends");
        assert_eq!(
            std::fs::read_to_string(&path).expect("reads"),
            "{\"kind\":\"h\"}\n{\"n\":\"3\"}\n"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn faults_fire_before_the_write() {
        let path = temp_log("faults");
        let faults = JournalFaultPlan::none().fail_writes_after(1).fail_count(1);
        let mut log = AppendLog::create(&path, "{\"kind\":\"h\"}\n", &faults)
            .expect("the header write passes");
        let err = log
            .append("{\"n\":\"1\"}\n")
            .expect_err("second write fails");
        assert!(err.to_string().contains("injected write fault"), "{err}");
        log.append("{\"n\":\"1\"}\n")
            .expect("the fault budget is spent");
        assert_eq!(
            std::fs::read_to_string(&path).expect("reads"),
            "{\"kind\":\"h\"}\n{\"n\":\"1\"}\n"
        );
        assert!(AppendLog::create_new(&path, "", &faults).is_err(), "exists");
        let _ = std::fs::remove_file(&path);
    }
}
