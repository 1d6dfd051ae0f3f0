//! Compaction crash-consistency and resume-equivalence tests for
//! `crystal::session`.
//!
//! Compaction rewrites a session journal as a checkpoint header plus an
//! empty tail via write-temp/fsync/rename. The crash states a SIGKILL
//! can physically leave behind are therefore:
//!
//! * the **original journal** plus a `.tmp` checkpoint truncated at any
//!   byte offset (the rename never happened) — pre-compaction state;
//! * the **complete checkpoint** at the journal path (the rename
//!   happened; the temp was fsync'd before it, so a renamed file is
//!   never torn) — post-compaction state.
//!
//! Either way a resume must reproduce bit-identical digests; only the
//! replay *work* differs, which is exactly what compaction is for.

use std::path::{Path, PathBuf};

use crystal::analyzer::AnalyzerOptions;
use crystal::durable::JournalFaultPlan;
use crystal::session::SESSION_JOURNAL_EXT;
use crystal::tech::Technology;
use crystal::{Session, SessionConfig, SessionManager};

const INVERTER_CHAIN: &str = "| two inverters\n\
i a\n\
o y\n\
n a m gnd 2 8\n\
p a m vdd 2 16\n\
C m 20\n\
n m y gnd 2 8\n\
p m y vdd 2 16\n\
C y 100\n";

const EDITS: [&str; 3] = ["resize a m gnd 4 8", "cap y 150", "cap m 40"];

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "crystal_compact_{name}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn open_session(dir: &Path, id: &str) -> Session {
    Session::open(
        id,
        INVERTER_CHAIN,
        "chain.sim",
        &Technology::nominal(),
        &SessionConfig::default(),
        AnalyzerOptions::default(),
        Some(&dir.join(format!("{id}.{SESSION_JOURNAL_EXT}"))),
        &JournalFaultPlan::none(),
    )
    .expect("opens")
}

fn threaded(threads: usize) -> AnalyzerOptions {
    AnalyzerOptions {
        threads,
        ..AnalyzerOptions::default()
    }
}

/// `(journal bytes before compaction, bytes after, final digest,
/// scenario rows)` — what [`edited_then_compacted`] hands back.
type CompactedFixture = (Vec<u8>, Vec<u8>, u64, Vec<(String, u64, String)>);

/// Builds a journal with three applied edits and returns the bytes on
/// disk before and after compaction plus the expected results.
fn edited_then_compacted(dir: &Path) -> CompactedFixture {
    let path = dir.join(format!("s1.{SESSION_JOURNAL_EXT}"));
    let mut session = open_session(dir, "s1");
    for edit in EDITS {
        session.apply_script(edit, None).expect("edit applies");
    }
    let digest = session.digest();
    let rows = session.scenario_rows();
    let pre = std::fs::read(&path).expect("journal readable");
    session.compact(&Technology::nominal()).expect("compacts");
    assert_eq!(session.digest(), digest, "compaction never changes state");
    assert_eq!(session.base_seq(), 3);
    assert_eq!(session.edits_since_checkpoint(), 0);
    drop(session);
    let post = std::fs::read(&path).expect("checkpoint readable");
    (pre, post, digest, rows)
}

#[test]
fn compaction_crash_states_all_resume_bit_identically() {
    let dir = temp_dir("crash");
    let (pre, post, digest, rows) = edited_then_compacted(&dir);
    let path = dir.join(format!("s1.{SESSION_JOURNAL_EXT}"));
    let tmp = dir.join(format!("s1.{SESSION_JOURNAL_EXT}.tmp"));
    assert!(
        post.len() < pre.len(),
        "three edits folded into a checkpoint should shrink the journal"
    );

    // Crash family A: the temp checkpoint exists, truncated at every
    // byte offset, and the rename never happened. Recovery must sweep
    // the temp and resume the *pre*-compaction journal: full replay,
    // identical digests.
    let mut cuts: Vec<usize> = (0..post.len()).step_by(23).collect();
    cuts.extend([1, post.len() - 1, post.len()]);
    for cut in cuts {
        std::fs::write(&path, &pre).expect("restore original journal");
        std::fs::write(&tmp, &post[..cut]).expect("write torn temp");
        let manager = SessionManager::new(
            Technology::nominal(),
            Some(dir.clone()),
            4,
            JournalFaultPlan::none(),
        )
        .expect("manager");
        let report = manager.recover(&AnalyzerOptions::default());
        assert_eq!(report.recovered, vec!["s1"], "cut at {cut}: {report:?}");
        assert_eq!(report.edits_replayed, 3, "pre-compaction replay is full");
        assert!(!tmp.exists(), "cut at {cut}: stray temp not swept");
        let session = manager.get("s1").expect("registered");
        let session = session.lock().expect("lock");
        assert_eq!(session.digest(), digest, "cut at {cut}");
        assert_eq!(session.scenario_rows(), rows, "cut at {cut}");
        assert_eq!(session.edits_applied(), 3, "cut at {cut}");
        assert_eq!(session.base_seq(), 0, "pre-compaction state");
    }

    // Crash family B: the rename happened (the checkpoint is complete
    // by construction — it was fsync'd before the rename). Resume is
    // O(edits since checkpoint) = 0 replayed edits, same digests.
    std::fs::write(&path, &post).expect("write checkpoint");
    let resumed = Session::resume(
        &path,
        &Technology::nominal(),
        AnalyzerOptions::default(),
        &JournalFaultPlan::none(),
    )
    .expect("checkpoint resumes");
    assert_eq!(resumed.digest(), digest);
    assert_eq!(resumed.scenario_rows(), rows);
    assert_eq!(resumed.edits_applied(), 3, "seq continues past checkpoint");
    assert_eq!(resumed.base_seq(), 3);
    assert_eq!(resumed.edits_replayed(), 0, "replay cost is O(tail)");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compacted_journal_with_torn_tail_drops_only_the_torn_edit() {
    let dir = temp_dir("tail");
    let path = dir.join(format!("s1.{SESSION_JOURNAL_EXT}"));
    let mut session = open_session(&dir, "s1");
    session.apply_script(EDITS[0], None).expect("edit 1");
    session.compact(&Technology::nominal()).expect("compacts");
    let checkpoint_digest = session.digest();
    session.apply_script(EDITS[1], None).expect("edit 2");
    let full_digest = session.digest();
    drop(session);

    let bytes = std::fs::read(&path).expect("journal readable");
    let header_end = bytes.iter().position(|&b| b == b'\n').expect("header") + 1;

    // A torn tail record after the checkpoint: the unacknowledged edit
    // is dropped, the checkpoint state survives.
    for cut in [header_end + 1, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).expect("write torn journal");
        let resumed = Session::resume(
            &path,
            &Technology::nominal(),
            AnalyzerOptions::default(),
            &JournalFaultPlan::none(),
        )
        .expect("torn tail resumes");
        assert_eq!(resumed.digest(), checkpoint_digest, "cut at {cut}");
        assert_eq!(resumed.edits_replayed(), 0, "cut at {cut}");
        assert_eq!(resumed.base_seq(), 1, "cut at {cut}");
    }

    // The intact journal replays exactly the one post-checkpoint edit.
    std::fs::write(&path, &bytes).expect("restore journal");
    let resumed = Session::resume(
        &path,
        &Technology::nominal(),
        AnalyzerOptions::default(),
        &JournalFaultPlan::none(),
    )
    .expect("resumes");
    assert_eq!(resumed.digest(), full_digest);
    assert_eq!(resumed.edits_replayed(), 1, "O(edits since checkpoint)");
    assert_eq!(resumed.edits_applied(), 2);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compacted_resume_is_bit_identical_across_thread_counts() {
    let dir = temp_dir("threads");
    let (pre, post, digest, rows) = edited_then_compacted(&dir);
    let path = dir.join(format!("s1.{SESSION_JOURNAL_EXT}"));

    // The compacted and uncompacted journals must resume to the same
    // digests, DeltaReports, and scenario rows at 1 and 4 threads.
    for threads in [1usize, 4] {
        let mut resumed_from = Vec::new();
        for (label, bytes) in [("uncompacted", &pre), ("compacted", &post)] {
            std::fs::write(&path, bytes).expect("write journal");
            let mut session = Session::resume(
                &path,
                &Technology::nominal(),
                threaded(threads),
                &JournalFaultPlan::none(),
            )
            .unwrap_or_else(|e| panic!("{label} at {threads} threads: {e}"));
            assert_eq!(session.digest(), digest, "{label} at {threads} threads");
            assert_eq!(
                session.scenario_rows(),
                rows,
                "{label} at {threads} threads"
            );
            // The same follow-up edit must produce the same DeltaReport
            // whichever journal the session came back from.
            let (delta, digest) = session
                .apply_script("cap y 200", None)
                .expect("follow-up edit");
            assert_eq!(digest, session.digest(), "the journaled digest is current");
            resumed_from.push((digest, delta.to_string()));
        }
        let [(digest_a, delta_a), (digest_b, delta_b)] = resumed_from.as_slice() else {
            unreachable!("two journals resumed");
        };
        assert_eq!(digest_a, digest_b, "{threads} threads: digests diverged");
        assert_eq!(delta_a, delta_b, "{threads} threads: DeltaReports diverged");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_sessions_stay_usable_but_ephemeral() {
    let dir = temp_dir("degraded");
    let path = dir.join(format!("s1.{SESSION_JOURNAL_EXT}"));
    // Header write + first edit succeed, then every journal write fails.
    let faults = JournalFaultPlan::none().fail_writes_after(2);
    let mut session = Session::open(
        "s1",
        INVERTER_CHAIN,
        "chain.sim",
        &Technology::nominal(),
        &SessionConfig::default(),
        AnalyzerOptions::default(),
        Some(&path),
        &faults,
    )
    .expect("opens");
    session
        .apply_script(EDITS[0], None)
        .expect("journaled edit");
    let journaled_digest = session.digest();
    assert!(session.degraded().is_none());

    // The failing write degrades the session: the edit *is* applied in
    // memory, the error names the journal, and journaling stops.
    let err = session
        .apply_script(EDITS[1], None)
        .expect_err("journal write fails");
    let message = err.to_string();
    assert!(message.contains("storage failure"), "got: {message}");
    assert!(message.contains("degraded"), "got: {message}");
    assert!(session.degraded().is_some());
    assert_ne!(session.digest(), journaled_digest, "edit applied in memory");

    // Further edits work without touching the dead journal (the fault
    // plan would fail them; degraded mode never calls it).
    let (ephemeral, _) = session
        .apply_script(EDITS[2], None)
        .expect("ephemeral edit");
    assert!(ephemeral.netlist_changes > 0);
    // Compaction cannot un-degrade a session.
    assert!(session.compact(&Technology::nominal()).is_err());
    drop(session);

    // The on-disk journal still holds the last *acknowledged-durable*
    // state: resume recovers up to the first edit, bit-identically.
    let resumed = Session::resume(
        &path,
        &Technology::nominal(),
        AnalyzerOptions::default(),
        &JournalFaultPlan::none(),
    )
    .expect("journal is consistent");
    assert_eq!(resumed.digest(), journaled_digest);
    assert_eq!(resumed.edits_applied(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reply_cache_dedupes_and_survives_resume() {
    let dir = temp_dir("replies");
    let path = dir.join(format!("s1.{SESSION_JOURNAL_EXT}"));
    let mut session = open_session(&dir, "s1");
    session
        .apply_script(EDITS[0], Some("req-1"))
        .expect("edit 1");
    let digest1 = session.digest();
    session
        .apply_script(EDITS[1], Some("req-2"))
        .expect("edit 2");
    assert_eq!(session.cached_reply("req-1"), Some((1, digest1)));
    assert_eq!(session.cached_reply("req-2"), Some((2, session.digest())));
    assert_eq!(session.cached_reply("req-9"), None);
    drop(session);

    // The cache is rebuilt from the journaled `req` fields, so a retry
    // that lands after a crash+resume still dedupes.
    let resumed = Session::resume(
        &path,
        &Technology::nominal(),
        AnalyzerOptions::default(),
        &JournalFaultPlan::none(),
    )
    .expect("resumes");
    assert_eq!(resumed.cached_reply("req-1"), Some((1, digest1)));
    assert_eq!(resumed.cached_reply("req-2"), Some((2, resumed.digest())));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A session map drill for the lease layer: idle sessions are evicted,
/// journals survive, and reattach restores bit-identical state.
#[test]
fn leases_evict_idle_sessions_and_reattach_restores_them() {
    use std::time::Duration;

    let dir = temp_dir("lease");
    let manager = SessionManager::new(
        Technology::nominal(),
        Some(dir.clone()),
        4,
        JournalFaultPlan::none(),
    )
    .expect("manager");
    let (id, slot) = manager
        .open(
            Some("s1"),
            INVERTER_CHAIN,
            "chain.sim",
            &SessionConfig::default(),
            AnalyzerOptions::default(),
        )
        .expect("opens");
    let digest = {
        let mut session = slot.lock().expect("lock");
        session.apply_script(EDITS[0], None).expect("edit");
        session.digest()
    };
    drop(slot);

    // A zero TTL evicts immediately; an in-flight session would be
    // skipped (its mutex is held), but ours is idle.
    assert_eq!(manager.evict_idle(Duration::ZERO), vec!["s1"]);
    assert_eq!(manager.session_count(), 0);
    assert!(
        dir.join(format!("{id}.{SESSION_JOURNAL_EXT}")).exists(),
        "eviction keeps the journal"
    );

    // Reattach replays the journal and re-registers the same id.
    let (slot, replayed) = manager
        .reattach("s1", &AnalyzerOptions::default())
        .expect("reattaches");
    assert_eq!(replayed, 1);
    assert_eq!(slot.lock().expect("lock").digest(), digest);
    assert_eq!(manager.session_count(), 1);

    // Unknown ids (no journal) stay errors.
    assert!(manager
        .reattach("nope", &AnalyzerOptions::default())
        .is_err());

    let _ = std::fs::remove_dir_all(&dir);
}
