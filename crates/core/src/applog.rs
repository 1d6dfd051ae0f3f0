//! The append-only JSON-lines log under every durable store: the batch
//! journal ([`crate::durable::Journal`]), the daemon's session journals
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
//! * damage on any earlier line is [`RecoverError::Corrupt`] at its
//!   1-based line, and so is a line 1 of the wrong `kind`;
//! * a missing file is [`RecoverError::Missing`]; a file with no complete
//!   header line — empty, or a header torn mid-write — is
//!   [`RecoverError::Empty`]. A store that can rewrite its header starts
//!   a fresh log; one that cannot reports it.
//!
//! [`AppendLog::reopen`] then truncates the file to the valid prefix and
//! appends after it. Record codecs, fingerprint checks and error types
//! stay with each store: this module knows lines, not records.

use crate::fingerprint::{parse_json_object, ReadFields};
use std::collections::HashMap;
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
/// the file, rename over `path`, fsync the directory. A crash at any
/// byte leaves either the old file or the new one — never a mix — which
/// is the invariant journal compaction rests on. The fault plan is
/// checked at the write and fsync points so disk-fault drills cover
/// this path too.
pub fn atomic_replace(path: &Path, bytes: &[u8], faults: &JournalFaultPlan) -> std::io::Result<()> {
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

/// An open log, positioned at its end for appending.
#[derive(Debug)]
pub struct AppendLog {
    file: File,
    path: PathBuf,
    faults: JournalFaultPlan,
}

impl AppendLog {
    /// Creates `path`, truncating any existing file.
    pub fn create(path: &Path, faults: &JournalFaultPlan) -> std::io::Result<AppendLog> {
        Ok(AppendLog::at(File::create(path)?, path, faults))
    }

    /// Creates `path`, failing if it already exists, so two writers
    /// racing on one name cannot silently share a file.
    pub fn create_new(path: &Path, faults: &JournalFaultPlan) -> std::io::Result<AppendLog> {
        let file = OpenOptions::new().write(true).create_new(true).open(path)?;
        Ok(AppendLog::at(file, path, faults))
    }

    /// Opens `path` (creating it if missing), truncates it to its first
    /// `valid_len` bytes — the [`Recovered::valid_len`] prefix — and
    /// positions the log at the end.
    pub fn reopen(
        path: &Path,
        valid_len: usize,
        faults: &JournalFaultPlan,
    ) -> std::io::Result<AppendLog> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(valid_len as u64)?;
        file.seek(SeekFrom::End(0))?;
        Ok(AppendLog::at(file, path, faults))
    }

    fn at(file: File, path: &Path, faults: &JournalFaultPlan) -> AppendLog {
        AppendLog {
            file,
            path: path.to_path_buf(),
            faults: faults.clone(),
        }
    }

    /// Appends `text` (whole lines, each ending in `\n`) with one write
    /// and one `sync_data`, so it survives a crash right after. The
    /// fault plan is checked before each.
    pub fn append(&mut self, text: &str) -> std::io::Result<()> {
        self.faults.check_write(&self.path)?;
        self.file.write_all(text.as_bytes())?;
        self.faults.check_sync(&self.path)?;
        self.file.sync_data()
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fault plan this log's appends check.
    pub fn faults(&self) -> &JournalFaultPlan {
        &self.faults
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Why [`recover`] found no usable log.
#[derive(Debug)]
pub enum RecoverError {
    /// The file does not exist.
    Missing,
    /// The file holds no complete header line: it is empty, or the
    /// header was torn mid-write.
    Empty,
    /// A line before the final one is damaged, or line 1 has the wrong
    /// `kind`.
    Corrupt {
        /// 1-based number of the first bad line.
        line: usize,
    },
    /// Reading the file failed.
    Io(std::io::Error),
}

/// The valid prefix of a log.
#[derive(Debug)]
pub struct Recovered {
    /// The header line's fields.
    pub header: Fields,
    /// Complete lines in the valid prefix, header included.
    pub lines: usize,
    /// Byte length of the valid prefix.
    pub valid_len: usize,
}

/// Reads the log at `path` and finds its valid prefix (see the
/// [module docs](self) for the rules). Line 1 must have
/// `"kind":header_kind`; every later parsed line goes to `record`, which
/// returns `false` when the line does not decode. The file itself is not
/// changed — [`AppendLog::reopen`] truncates.
pub fn recover(
    path: &Path,
    header_kind: &str,
    mut record: impl FnMut(Fields) -> bool,
) -> Result<Recovered, RecoverError> {
    let bytes = std::fs::read(path).map_err(|e| match e.kind() {
        ErrorKind::NotFound => RecoverError::Missing,
        _ => RecoverError::Io(e),
    })?;
    let text = String::from_utf8_lossy(&bytes);
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let mut header = None;
    let mut valid_lines = 0;
    let mut valid_len = 0;
    for (index, raw) in lines.iter().enumerate() {
        let fields = raw
            .strip_suffix('\n')
            .and_then(|line| parse_json_object(line.trim_end_matches('\r')));
        let kept = match fields {
            None => false,
            Some(fields) if index == 0 => {
                if fields.str("kind") != Some(header_kind) {
                    return Err(RecoverError::Corrupt { line: 1 });
                }
                header = Some(fields);
                true
            }
            Some(fields) => record(fields),
        };
        if !kept {
            if index + 1 < lines.len() {
                return Err(RecoverError::Corrupt { line: index + 1 });
            }
            break; // the torn tail
        }
        valid_lines += 1;
        valid_len += raw.len();
    }
    Ok(Recovered {
        header: header.ok_or(RecoverError::Empty)?,
        lines: valid_lines,
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

    fn recover_ns(path: &Path) -> Result<(Recovered, Vec<String>), RecoverError> {
        let mut ns = Vec::new();
        let recovered = recover(path, "h", |fields| match fields.get("n") {
            Some(n) => {
                ns.push(n.clone());
                true
            }
            None => false,
        })?;
        Ok((recovered, ns))
    }

    #[test]
    fn every_cut_recovers_its_complete_prefix() {
        let path = temp_log("cuts");
        let header_end = LOG.find('\n').expect("header") + 1;
        for cut in 0..=LOG.len() {
            std::fs::write(&path, &LOG[..cut]).expect("writes");
            let result = recover_ns(&path);
            if cut < header_end {
                assert!(matches!(result, Err(RecoverError::Empty)), "cut {cut}");
                continue;
            }
            let (recovered, ns) = result.expect("recovers");
            let complete = LOG[..cut].matches('\n').count();
            assert_eq!(recovered.lines, complete, "cut {cut}");
            assert_eq!(ns.len(), complete - 1, "cut {cut}");
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
            let result = recover_ns(&path);
            assert!(
                matches!(result, Err(RecoverError::Corrupt { line: l }) if l == line),
                "{text:?}: {result:?}"
            );
        }
        // An undecodable *final* line is a torn tail, not corruption.
        std::fs::write(&path, "{\"kind\":\"h\"}\n{\"x\":\"1\"}\n").expect("writes");
        let (recovered, ns) = recover_ns(&path).expect("torn tail recovers");
        assert_eq!((recovered.lines, ns.len()), (1, 0));
        let _ = std::fs::remove_file(&path);
        assert!(matches!(recover_ns(&path), Err(RecoverError::Missing)));
    }

    #[test]
    fn reopen_truncates_to_the_valid_prefix_and_appends() {
        let path = temp_log("reopen");
        std::fs::write(&path, &LOG[..LOG.len() - 3]).expect("writes torn log");
        let (recovered, _) = recover_ns(&path).expect("recovers");
        let mut log = AppendLog::reopen(&path, recovered.valid_len, &JournalFaultPlan::none())
            .expect("opens");
        log.append("{\"n\":\"2\"}\n").expect("appends");
        assert_eq!(std::fs::read_to_string(&path).expect("reads"), LOG);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn faults_fire_before_the_write() {
        let path = temp_log("faults");
        let faults = JournalFaultPlan::none().fail_writes_after(1).fail_count(1);
        let mut log = AppendLog::create(&path, &faults).expect("creates");
        log.append("{\"kind\":\"h\"}\n")
            .expect("first write passes");
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
        assert!(AppendLog::create_new(&path, &faults).is_err(), "exists");
        let _ = std::fs::remove_file(&path);
    }
}
