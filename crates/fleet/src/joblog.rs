//! Write-ahead job log: durable record of accepted specs and their
//! terminal outcomes.
//!
//! An accepted [`JobSpec`] is appended (as its canonical JSON, the
//! lossless codec from `secddr_service::json`) when its job has a cell
//! to dispatch, *before* any cell is dispatched. A job whose every cell
//! the result store already holds finishes inside its submit, so it
//! writes no record at all: there is nothing a restart could replay.
//! When a logged job reaches a terminal state, a matching terminal
//! record is appended *before* the terminal event goes out, so a client
//! that has seen a job end never causes its replay. A dispatcher
//! restarted against the same log dir therefore sees exactly the set of
//! logged jobs that never finished, and — because the simulator is
//! deterministic — replaying them can never produce a different answer
//! than the run the crash interrupted.
//!
//! On-disk format (all integers little-endian):
//!
//! ```text
//! magic  b"SDJL" | version u32
//! record*: kind u8 | hash u64 | len u64 | payload[len]
//! ```
//!
//! `kind` 1 = submitted (payload = canonical spec JSON), 2/3/4 =
//! finished/cancelled/failed (payload empty). `hash` is
//! [`JobSpec::content_hash`], the dedupe key (priority excluded).
//!
//! Decoding is guarded like the trace cache (PR 5): wrong magic or
//! version ignores the whole file; a truncated, corrupt, or
//! unknown-kind tail stops the scan and keeps the valid prefix — a
//! half-written record from a crash mid-append loses at most that one
//! record, never the log. All offset arithmetic is checked, so a
//! crafted `len` of `u64::MAX` cannot panic or allocate.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use secddr_service::{JobSpec, Json};

/// File magic for the job log ("SecDDR Job Log").
pub const MAGIC: &[u8; 4] = b"SDJL";
/// Format version; bump on any layout change.
pub const VERSION: u32 = 1;
/// Terminal records appended since the last compaction before the log
/// is rewritten to just its incomplete-job prefix.
const COMPACT_EVERY: u64 = 64;

const KIND_SUBMITTED: u8 = 1;
const KIND_FINISHED: u8 = 2;
const KIND_CANCELLED: u8 = 3;
const KIND_FAILED: u8 = 4;

/// How a logged job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// All cells ran (or were served from the result store).
    Finished,
    /// Cancelled by a client before completion.
    Cancelled,
    /// Rejected or errored server-side.
    Failed,
}

impl Terminal {
    fn kind(self) -> u8 {
        match self {
            Terminal::Finished => KIND_FINISHED,
            Terminal::Cancelled => KIND_CANCELLED,
            Terminal::Failed => KIND_FAILED,
        }
    }
}

/// One decoded log record, as [`decode_log`] returns them.
#[derive(Debug, Clone)]
pub enum LogRecord {
    /// A job was accepted; `hash` is its [`JobSpec::content_hash`].
    Submitted {
        /// Canonical content hash (the dedupe key).
        hash: u64,
        /// The accepted spec, decoded from its logged canonical JSON.
        spec: JobSpec,
    },
    /// A previously-submitted job reached a terminal state.
    Terminal {
        /// Canonical content hash of the finished job.
        hash: u64,
        /// Which terminal state it reached.
        outcome: Terminal,
    },
}

/// Decodes a raw log image into its valid record prefix.
///
/// Wrong magic/version yields no records; the scan stops (keeping
/// everything before it) at the first truncated, corrupt, or
/// unknown-kind record.
#[must_use]
pub fn decode_log(bytes: &[u8]) -> Vec<LogRecord> {
    let mut records = Vec::new();
    let Some(header) = bytes.get(..8) else {
        return records;
    };
    if &header[..4] != MAGIC
        || u32::from_le_bytes([header[4], header[5], header[6], header[7]]) != VERSION
    {
        return records;
    }
    let mut at = 8usize;
    while let Some(&kind) = bytes.get(at) {
        let Some(body_start) = at.checked_add(17) else {
            break;
        };
        let Some(head) = bytes.get(at + 1..body_start) else {
            break;
        };
        let mut word = [0u8; 8];
        word.copy_from_slice(&head[..8]);
        let hash = u64::from_le_bytes(word);
        word.copy_from_slice(&head[8..]);
        let Ok(len) = usize::try_from(u64::from_le_bytes(word)) else {
            break;
        };
        let Some(end) = body_start.checked_add(len) else {
            break;
        };
        let Some(payload) = bytes.get(body_start..end) else {
            break;
        };
        match kind {
            KIND_SUBMITTED => {
                let Ok(text) = std::str::from_utf8(payload) else {
                    break;
                };
                let Ok(json) = Json::parse(text) else {
                    break;
                };
                let Ok(spec) = JobSpec::from_json(&json) else {
                    break;
                };
                records.push(LogRecord::Submitted { hash, spec });
            }
            KIND_FINISHED | KIND_CANCELLED | KIND_FAILED => {
                if !payload.is_empty() {
                    break;
                }
                let outcome = match kind {
                    KIND_FINISHED => Terminal::Finished,
                    KIND_CANCELLED => Terminal::Cancelled,
                    _ => Terminal::Failed,
                };
                records.push(LogRecord::Terminal { hash, outcome });
            }
            _ => break,
        }
        at = end;
    }
    records
}

/// Reads and decodes `dir`'s log file (missing file → no records).
///
/// # Errors
///
/// Propagates I/O errors other than the file not existing.
pub fn read_log(dir: &Path) -> std::io::Result<Vec<LogRecord>> {
    match std::fs::read(dir.join("jobs.log")) {
        Ok(bytes) => Ok(decode_log(&bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

fn encode_record(out: &mut Vec<u8>, kind: u8, hash: u64, payload: &[u8]) {
    out.push(kind);
    out.extend_from_slice(&hash.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
}

fn encode_incomplete(incomplete: &[(u64, JobSpec)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    for (hash, spec) in incomplete {
        encode_record(
            &mut out,
            KIND_SUBMITTED,
            *hash,
            spec.to_json().to_string().as_bytes(),
        );
    }
    out
}

/// The durable write-ahead log, opened against a directory.
///
/// [`JobLog::open`] replays the existing file, computes the incomplete
/// set (submitted minus terminal, deduped by content hash, insertion
/// order preserved), compacts the file down to exactly that set, and
/// keeps an append handle for new records.
#[derive(Debug)]
pub struct JobLog {
    dir: PathBuf,
    file: File,
    /// Submitted-but-not-terminal jobs, insertion order, unique by hash.
    live: Vec<(u64, JobSpec)>,
    /// The incomplete set as of open — what a restart must replay.
    replay: Vec<(u64, JobSpec)>,
    terminals_since_compact: u64,
}

impl JobLog {
    /// Opens (creating if needed) the log in `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file I/O errors.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut live: Vec<(u64, JobSpec)> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for record in read_log(&dir)? {
            match record {
                LogRecord::Submitted { hash, spec } => {
                    if seen.insert(hash) {
                        live.push((hash, spec));
                    }
                }
                LogRecord::Terminal { hash, .. } => {
                    seen.remove(&hash);
                    live.retain(|(h, _)| *h != hash);
                }
            }
        }
        let file = Self::rewrite(&dir, &live)?;
        Ok(Self {
            dir,
            file,
            replay: live.clone(),
            live,
            terminals_since_compact: 0,
        })
    }

    /// Atomically rewrites the log to just `incomplete` and returns a
    /// fresh append handle.
    fn rewrite(dir: &Path, incomplete: &[(u64, JobSpec)]) -> std::io::Result<File> {
        let path = dir.join("jobs.log");
        let tmp = dir.join(format!("jobs.log.tmp.{}", std::process::id()));
        std::fs::write(&tmp, encode_incomplete(incomplete))?;
        std::fs::rename(&tmp, &path)?;
        OpenOptions::new().append(true).open(&path)
    }

    /// The incomplete jobs found at open time — the replay set. Each
    /// entry is `(content_hash, spec)` in original submission order,
    /// already deduped by hash.
    #[must_use]
    pub fn incomplete(&self) -> &[(u64, JobSpec)] {
        &self.replay
    }

    /// Directory this log lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn append(&mut self, kind: u8, hash: u64, payload: &[u8]) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(17 + payload.len());
        encode_record(&mut buf, kind, hash, payload);
        self.file.write_all(&buf)?;
        self.file.flush()?;
        // Best-effort durability: the log stays correct without it (a
        // lost tail is just a shorter valid prefix), so sync failures
        // on exotic filesystems don't fail the submit.
        let _ = self.file.sync_data();
        Ok(())
    }

    /// Logs an accepted spec (call *before* dispatching any cell).
    ///
    /// # Errors
    ///
    /// Propagates write failures — a spec that cannot be logged must
    /// not be accepted, or durability is silently lost.
    pub fn append_submitted(&mut self, hash: u64, spec: &JobSpec) -> std::io::Result<()> {
        self.append(KIND_SUBMITTED, hash, spec.to_json().to_string().as_bytes())?;
        if !self.live.iter().any(|(h, _)| *h == hash) {
            self.live.push((hash, spec.clone()));
        }
        Ok(())
    }

    /// Logs a job's terminal state, retiring it from the replay set.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn append_terminal(&mut self, hash: u64, outcome: Terminal) -> std::io::Result<()> {
        self.append(outcome.kind(), hash, &[])?;
        self.live.retain(|(h, _)| *h != hash);
        self.terminals_since_compact += 1;
        if self.terminals_since_compact >= COMPACT_EVERY {
            self.file = Self::rewrite(&self.dir, &self.live)?;
            self.terminals_since_compact = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("secddr-joblog-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec(bench: &str, seed: u64) -> JobSpec {
        let mut s = JobSpec::bench(bench);
        s.seed = seed;
        s
    }

    #[test]
    fn open_replays_submitted_minus_terminal() {
        let dir = temp_dir("replay");
        {
            let mut log = JobLog::open(&dir).unwrap();
            let a = spec("mcf", 1);
            let b = spec("lbm", 2);
            let c = spec("povray", 3);
            log.append_submitted(a.content_hash(), &a).unwrap();
            log.append_submitted(b.content_hash(), &b).unwrap();
            log.append_submitted(c.content_hash(), &c).unwrap();
            log.append_terminal(b.content_hash(), Terminal::Finished)
                .unwrap();
        }
        let log = JobLog::open(&dir).unwrap();
        let hashes: Vec<u64> = log.incomplete().iter().map(|(h, _)| *h).collect();
        assert_eq!(
            hashes,
            vec![
                spec("mcf", 1).content_hash(),
                spec("povray", 3).content_hash()
            ],
            "terminal jobs retire; order is submission order"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_submissions_dedupe_by_content_hash() {
        let dir = temp_dir("dedupe");
        {
            let mut log = JobLog::open(&dir).unwrap();
            let a = spec("mcf", 1);
            let mut a_hi = a.clone();
            a_hi.priority = 5; // priority is excluded from the hash
            log.append_submitted(a.content_hash(), &a).unwrap();
            log.append_submitted(a_hi.content_hash(), &a_hi).unwrap();
        }
        let log = JobLog::open(&dir).unwrap();
        assert_eq!(log.incomplete().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_compacts_terminal_records_away() {
        let dir = temp_dir("compact");
        {
            let mut log = JobLog::open(&dir).unwrap();
            let a = spec("mcf", 1);
            log.append_submitted(a.content_hash(), &a).unwrap();
            log.append_terminal(a.content_hash(), Terminal::Finished)
                .unwrap();
        }
        {
            let log = JobLog::open(&dir).unwrap();
            assert!(log.incomplete().is_empty());
        }
        // After the second open the file holds only the header.
        let bytes = std::fs::read(dir.join("jobs.log")).unwrap();
        assert_eq!(bytes.len(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_keeps_valid_prefix() {
        let dir = temp_dir("truncated");
        {
            let mut log = JobLog::open(&dir).unwrap();
            let a = spec("mcf", 1);
            let b = spec("lbm", 2);
            log.append_submitted(a.content_hash(), &a).unwrap();
            log.append_submitted(b.content_hash(), &b).unwrap();
        }
        let path = dir.join("jobs.log");
        let bytes = std::fs::read(&path).unwrap();
        // Chop into the middle of the second record.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let log = JobLog::open(&dir).unwrap();
        assert_eq!(log.incomplete().len(), 1);
        assert_eq!(log.incomplete()[0].0, spec("mcf", 1).content_hash());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_or_version_ignores_whole_file() {
        let dir = temp_dir("magic");
        {
            let mut log = JobLog::open(&dir).unwrap();
            let a = spec("mcf", 1);
            log.append_submitted(a.content_hash(), &a).unwrap();
        }
        let path = dir.join("jobs.log");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(JobLog::open(&dir).unwrap().incomplete().is_empty());

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF; // restore magic
        bytes[4] = 99; // break version
        std::fs::write(&path, &bytes).unwrap();
        assert!(JobLog::open(&dir).unwrap().incomplete().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn huge_len_field_cannot_panic_or_allocate() {
        let dir = temp_dir("hugelen");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(KIND_SUBMITTED);
        bytes.extend_from_slice(&42u64.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(dir.join("jobs.log"), &bytes).unwrap();
        assert!(JobLog::open(&dir).unwrap().incomplete().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_kind_stops_the_scan() {
        let dir = temp_dir("unknown");
        let a = spec("mcf", 1);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        encode_record(
            &mut bytes,
            KIND_SUBMITTED,
            a.content_hash(),
            a.to_json().to_string().as_bytes(),
        );
        encode_record(&mut bytes, 200, 7, b"junk");
        let b = spec("lbm", 2);
        encode_record(
            &mut bytes,
            KIND_SUBMITTED,
            b.content_hash(),
            b.to_json().to_string().as_bytes(),
        );
        std::fs::write(dir.join("jobs.log"), &bytes).unwrap();
        let log = JobLog::open(&dir).unwrap();
        assert_eq!(log.incomplete().len(), 1, "prefix before the junk survives");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn terminal_with_payload_is_rejected() {
        let dir = temp_dir("termpay");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        encode_record(&mut bytes, KIND_FINISHED, 1, b"extra");
        std::fs::write(dir.join("jobs.log"), &bytes).unwrap();
        assert!(decode_log(&std::fs::read(dir.join("jobs.log")).unwrap()).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
