"""Crash-safe, resumable study execution.

The paper's benchmark is a long grid sweep on flaky edge hardware; this
package makes the *run itself* survivable rather than only individual
batches (which :mod:`repro.robustness` already guards):

- :mod:`repro.resilience.atomic` — tmp + rename + fsync file writes, so
  a crash never leaves a half-written artifact;
- :mod:`repro.resilience.journal` — an append-only JSONL run journal
  whose recovery scanner tolerates the truncated trailing line a
  mid-write kill produces.

The study-grid executor that drives cells through these primitives
(:class:`~repro.core.executor.ResilientExecutor`) lives with the study
runner in :mod:`repro.core`.
"""

from repro.resilience.atomic import (
    atomic_path,
    atomic_write_bytes,
    atomic_write_text,
    fsync_directory,
)
from repro.resilience.journal import (
    JournalError,
    JournalScan,
    RunJournal,
    scan_journal,
)

__all__ = [
    "atomic_path",
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_directory",
    "JournalError",
    "JournalScan",
    "RunJournal",
    "scan_journal",
]
