//! Live-index error type.

use pr_em::EmError;
use pr_store::StoreError;
use std::fmt;

/// Errors surfaced by the live index lifecycle and write path.
#[derive(Debug)]
pub enum LiveError {
    /// Underlying OS-level I/O failure.
    Io(std::io::Error),
    /// An error bubbled up from the substrate (device layer).
    Em(EmError),
    /// An error bubbled up from the snapshot store.
    Store(StoreError),
    /// A WAL or manifest record failed to decode past recovery.
    Corrupt(String),
    /// Another process holds the index directory's exclusive lock.
    /// Opening an index — even for read-only CLI queries — mutates
    /// shared state (torn-tail truncation, temp-file cleanup), so
    /// concurrent opens are refused rather than risking corruption.
    Locked(std::path::PathBuf),
    /// This writer's group commit failed: its batch was rolled back
    /// (WAL truncated to the pre-group offset, pending ops discarded)
    /// and was never applied. When `transient` the write path is *not*
    /// poisoned — the next successful append clears degraded mode and
    /// ingest resumes (e.g. ENOSPC after space is freed). When fatal
    /// the write path stays poisoned until reopen.
    GroupFailed {
        /// Rendered cause of the group's I/O failure.
        reason: String,
        /// Whether retrying the write can succeed without a reopen.
        transient: bool,
    },
}

impl LiveError {
    /// Transient-vs-fatal classification (see
    /// [`pr_em::io_error_is_transient`]): `true` for failures expected
    /// to clear up when conditions change — ENOSPC once space is freed,
    /// EINTR, timeouts — and for group failures flagged transient.
    /// Corruption, lock conflicts, and hard I/O errors are fatal.
    pub(crate) fn is_transient(&self) -> bool {
        match self {
            LiveError::Io(e) => pr_em::io_error_is_transient(e),
            LiveError::Em(e) => e.is_transient(),
            LiveError::Store(e) => e.is_transient(),
            LiveError::GroupFailed { transient, .. } => *transient,
            _ => false,
        }
    }
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Io(e) => write!(f, "I/O error: {e}"),
            LiveError::Em(e) => write!(f, "substrate error: {e}"),
            LiveError::Store(e) => write!(f, "store error: {e}"),
            LiveError::Corrupt(msg) => write!(f, "corrupt live index: {msg}"),
            LiveError::Locked(dir) => write!(
                f,
                "live index at {} is locked by another process",
                dir.display()
            ),
            LiveError::GroupFailed { reason, transient } => write!(
                f,
                "group commit failed ({}): {reason}",
                if *transient {
                    "transient; batch rolled back, ingest can resume"
                } else {
                    "fatal; write path poisoned"
                }
            ),
        }
    }
}

impl std::error::Error for LiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveError::Io(e) => Some(e),
            LiveError::Em(e) => Some(e),
            LiveError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LiveError {
    fn from(e: std::io::Error) -> Self {
        LiveError::Io(e)
    }
}

impl From<EmError> for LiveError {
    fn from(e: EmError) -> Self {
        match e {
            EmError::Io(io) => LiveError::Io(io),
            other => LiveError::Em(other),
        }
    }
}

impl From<StoreError> for LiveError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(io) => LiveError::Io(io),
            other => LiveError::Store(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e: LiveError = std::io::Error::other("disk gone").into();
        assert!(e.to_string().contains("disk gone"));
        let e: LiveError = EmError::ReadOnly.into();
        assert!(e.to_string().contains("read-only"));
        let e: LiveError = StoreError::BadMagic.into();
        assert!(e.to_string().contains("magic"));
        assert!(LiveError::Corrupt("x".into()).to_string().contains("x"));
        let e = LiveError::GroupFailed {
            reason: "no space".into(),
            transient: true,
        };
        assert!(e.to_string().contains("no space"));
        assert!(e.to_string().contains("resume"));
    }

    #[test]
    fn transient_classification() {
        let enospc = std::io::Error::from_raw_os_error(28);
        assert!(LiveError::Io(enospc).is_transient());
        let eintr = std::io::Error::from_raw_os_error(4);
        assert!(LiveError::Em(EmError::Io(eintr)).is_transient());
        let eio = std::io::Error::from_raw_os_error(5);
        assert!(!LiveError::Io(eio).is_transient());
        assert!(!LiveError::Corrupt("x".into()).is_transient());
        assert!(LiveError::GroupFailed {
            reason: "r".into(),
            transient: true
        }
        .is_transient());
        assert!(!LiveError::GroupFailed {
            reason: "r".into(),
            transient: false
        }
        .is_transient());
    }
}
