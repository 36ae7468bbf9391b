//! Write-ahead logging for fleet sessions: the persisted form of the
//! [`FleetEvent`] log that [`Fleet::replay`](crate::fleet::Fleet::replay)
//! treats as the source of truth.
//!
//! The format is JSON lines — one event per line, the trailing newline is
//! the commit marker. A process killed mid-write leaves a *torn tail*:
//! either a final line with no terminating newline, or a final line that
//! no longer parses. [`WalReader::read`] detects both and reports the
//! clean prefix; [`WalReader::recover`] additionally truncates the file
//! back to that prefix so appends can resume. Corruption anywhere *before*
//! the final line is not a crash artifact (appends never rewrite old
//! bytes) and is reported as an error, never silently skipped.
//!
//! ```no_run
//! use conductor_core::{WalReader, WalWriter};
//! # fn demo(fleet: &conductor_core::Fleet) -> Result<(), conductor_core::ConductorError> {
//! let mut wal = WalWriter::create("session.wal")?;
//! wal.log_all(fleet.events())?;
//! // ... later, possibly after a crash:
//! let readout = WalReader::read("session.wal")?;
//! if readout.torn {
//!     WalReader::recover("session.wal")?; // drop the uncommitted tail
//! }
//! # Ok(())
//! # }
//! ```

use crate::error::ConductorError;
use crate::fleet::FleetEvent;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

fn io_err(context: &str, path: &Path, e: std::io::Error) -> ConductorError {
    ConductorError::Io(format!("{context} {}: {e}", path.display()))
}

/// Appends [`FleetEvent`]s to a JSON-lines log, flushing each batch so a
/// crash can lose at most the entry being written (the torn tail the
/// reader detects), never a committed one.
#[derive(Debug)]
pub struct WalWriter {
    file: BufWriter<File>,
    path: PathBuf,
}

impl WalWriter {
    /// Creates the log at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, ConductorError> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path).map_err(|e| io_err("creating WAL", &path, e))?;
        Ok(Self {
            file: BufWriter::new(file),
            path,
        })
    }

    /// Opens the log at `path` for appending, creating it if absent. The
    /// caller is responsible for the file ending on a committed line —
    /// run [`WalReader::recover`] first after an unclean shutdown.
    pub fn append(path: impl AsRef<Path>) -> Result<Self, ConductorError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("opening WAL", &path, e))?;
        Ok(Self {
            file: BufWriter::new(file),
            path,
        })
    }

    /// Appends one event as a JSON line and flushes it to the OS.
    pub(crate) fn log(&mut self, event: &FleetEvent) -> Result<(), ConductorError> {
        self.log_all(std::slice::from_ref(event))
    }

    /// Appends every event, then flushes once — the batched form for
    /// draining `fleet.events_since(cursor)` after each step.
    pub fn log_all(&mut self, events: &[FleetEvent]) -> Result<(), ConductorError> {
        for event in events {
            let line = serde_json::to_string(event)
                .map_err(|e| ConductorError::InvalidInput(format!("serializing event: {e}")))?;
            self.file
                .write_all(line.as_bytes())
                .and_then(|()| self.file.write_all(b"\n"))
                .map_err(|e| io_err("writing WAL", &self.path, e))?;
        }
        self.file
            .flush()
            .map_err(|e| io_err("flushing WAL", &self.path, e))
    }

    /// Where the log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// What [`WalReader::read`] found: the committed events and whether the
/// file ended in an uncommitted (torn) tail.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReadout {
    /// Every committed event, in log order.
    pub events: Vec<FleetEvent>,
    /// `true` when the file ended mid-entry: a final line missing its
    /// terminating newline, or a final line that fails to parse. The torn
    /// bytes are *not* in `events`.
    pub torn: bool,
    /// Byte length of the committed prefix —
    /// [`WalReader::recover`] truncates the file to exactly this.
    pub committed_bytes: u64,
}

/// Reads JSON-lines event logs back, detecting torn tails.
#[derive(Debug)]
pub struct WalReader;

impl WalReader {
    /// Reads the log at `path`. A torn *final* line is reported via
    /// [`WalReadout::torn`] and excluded from the events; an unparseable
    /// line anywhere earlier is corruption appends cannot explain and
    /// fails with [`ConductorError::InvalidInput`].
    pub fn read(path: impl AsRef<Path>) -> Result<WalReadout, ConductorError> {
        let path = path.as_ref();
        let mut text = String::new();
        File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(|e| io_err("reading WAL", path, e))?;

        let mut events = Vec::new();
        let mut torn = false;
        let mut committed_bytes = 0u64;
        let mut offset = 0usize;
        while offset < text.len() {
            let rest = &text[offset..];
            let (line, terminated, consumed) = match rest.find('\n') {
                Some(i) => (&rest[..i], true, i + 1),
                None => (rest, false, rest.len()),
            };
            if !terminated {
                // The newline is the commit marker: a final line without
                // one is an in-flight append, whatever its bytes say.
                torn = true;
                break;
            }
            match serde_json::from_str::<FleetEvent>(line) {
                Ok(event) => {
                    events.push(event);
                    offset += consumed;
                    committed_bytes = offset as u64;
                }
                Err(e) => {
                    if offset + consumed >= text.len() {
                        torn = true; // unparseable final line: torn write
                        break;
                    }
                    return Err(ConductorError::InvalidInput(format!(
                        "corrupt WAL entry at byte {offset} of {}: {e}",
                        path.display()
                    )));
                }
            }
        }
        Ok(WalReadout {
            events,
            torn,
            committed_bytes,
        })
    }

    /// Reads the log and, when the tail is torn, truncates the file back
    /// to the committed prefix so [`WalWriter::append`] can resume on a
    /// clean boundary. Returns the committed events either way.
    pub fn recover(path: impl AsRef<Path>) -> Result<Vec<FleetEvent>, ConductorError> {
        let path = path.as_ref();
        let readout = Self::read(path)?;
        if readout.torn {
            OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|f| f.set_len(readout.committed_bytes))
                .map_err(|e| io_err("truncating WAL", path, e))?;
        }
        Ok(readout.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::TenantId;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A unique temp path per test (no tempfile crate in this tree).
    fn temp_wal(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "conductor-wal-test-{}-{tag}-{n}.wal",
            std::process::id()
        ))
    }

    fn sample_events() -> Vec<FleetEvent> {
        vec![
            FleetEvent::Planned {
                tenant: TenantId(0),
                at_hours: 0.0,
                expected_cost: 12.5,
                expected_completion_hours: 6.25,
            },
            FleetEvent::Completed {
                tenant: TenantId(0),
                at_hours: 6.25,
                met_deadline: Some(true),
            },
            FleetEvent::Failed {
                tenant: TenantId(1),
                at_hours: 7.0,
                reason: "unit test".into(),
            },
        ]
    }

    #[test]
    fn roundtrips_a_clean_log() {
        let path = temp_wal("clean");
        let events = sample_events();
        let mut w = WalWriter::create(&path).unwrap();
        w.log_all(&events).unwrap();
        drop(w);
        let readout = WalReader::read(&path).unwrap();
        assert!(!readout.torn);
        assert_eq!(readout.events, events);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_continues_an_existing_log() {
        let path = temp_wal("append");
        let events = sample_events();
        let mut w = WalWriter::create(&path).unwrap();
        w.log(&events[0]).unwrap();
        drop(w);
        let mut w = WalWriter::append(&path).unwrap();
        w.log_all(&events[1..]).unwrap();
        drop(w);
        assert_eq!(WalReader::read(&path).unwrap().events, events);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_trailing_newline_is_a_torn_tail() {
        let path = temp_wal("no-newline");
        let events = sample_events();
        let mut w = WalWriter::create(&path).unwrap();
        w.log_all(&events).unwrap();
        drop(w);
        // Chop the commit marker off the last entry.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 1]).unwrap();
        let readout = WalReader::read(&path).unwrap();
        assert!(readout.torn);
        assert_eq!(readout.events, events[..2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_final_line_is_a_torn_tail() {
        let path = temp_wal("torn");
        let events = sample_events();
        let mut w = WalWriter::create(&path).unwrap();
        w.log_all(&events).unwrap();
        drop(w);
        // Cut the file mid-way through the final entry, keeping a newline
        // at the very end (half a JSON object, then EOL).
        let text = std::fs::read_to_string(&path).unwrap();
        let last_start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        let cut = last_start + (text.len() - last_start) / 2;
        std::fs::write(&path, format!("{}\n", &text[..cut])).unwrap();
        let readout = WalReader::read(&path).unwrap();
        assert!(readout.torn);
        assert_eq!(readout.events, events[..2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_truncates_to_the_committed_prefix() {
        let path = temp_wal("recover");
        let events = sample_events();
        let mut w = WalWriter::create(&path).unwrap();
        w.log_all(&events).unwrap();
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 3]).unwrap();
        let recovered = WalReader::recover(&path).unwrap();
        assert_eq!(recovered, events[..2]);
        // The file is clean now: appends resume on a committed boundary.
        let mut w = WalWriter::append(&path).unwrap();
        w.log(&events[2]).unwrap();
        drop(w);
        let readout = WalReader::read(&path).unwrap();
        assert!(!readout.torn);
        assert_eq!(readout.events, events);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_an_error_not_a_torn_tail() {
        let path = temp_wal("corrupt");
        let events = sample_events();
        let mut w = WalWriter::create(&path).unwrap();
        w.log_all(&events).unwrap();
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("Planned", "Plan???", 1);
        std::fs::write(&path, corrupted).unwrap();
        let err = WalReader::read(&path).unwrap_err();
        assert!(matches!(err, ConductorError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn empty_log_reads_clean() {
        let path = temp_wal("empty");
        drop(WalWriter::create(&path).unwrap());
        let readout = WalReader::read(&path).unwrap();
        assert!(!readout.torn);
        assert!(readout.events.is_empty());
        assert_eq!(readout.committed_bytes, 0);
        std::fs::remove_file(&path).ok();
    }
}
