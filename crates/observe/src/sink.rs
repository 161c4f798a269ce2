//! Pluggable event sinks.
//!
//! A sink receives every emitted [`Event`] behind a shared reference, so
//! implementations synchronize internally (one `Mutex` per sink; the hot
//! path never takes a lock when telemetry is disabled — see
//! [`crate::Telemetry`]). Sink locks are poison-tolerant: a panic inside
//! one observer thread must never take the campaign's telemetry down.

use crate::event::Event;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Mutex, MutexGuard};

/// Where events go. `emit` must be cheap and must never panic the campaign:
/// I/O errors are swallowed after the first failure.
pub trait EventSink: Send + Sync {
    fn emit(&self, ev: &Event);
    /// Flush any buffered output (end of campaign).
    fn flush(&self) {}
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The disabled sink: does nothing. A campaign built with only `NoopSink`
/// behaves exactly like one with telemetry off; the campaign hot path
/// short-circuits before even constructing events (zero-cost guarantee).
pub struct NoopSink;

impl EventSink for NoopSink {
    #[inline]
    fn emit(&self, _ev: &Event) {}
}

/// Default size cap for [`JsonlSink`] rotation: 256 MiB per generation.
pub const DEFAULT_JSONL_CAP_BYTES: u64 = 256 * 1024 * 1024;

struct JsonlState {
    out: Option<BufWriter<File>>,
    /// Bytes written to the current generation.
    written: u64,
}

/// Append-only JSONL event log: one `Event::to_json` object per line, with
/// size-capped single-generation rotation so week-long campaigns do not
/// grow an unbounded log. When the active file would exceed the cap it is
/// renamed `events.jsonl` → `events.1.jsonl` (overwriting any previous
/// rotation) and a fresh file is started.
pub struct JsonlSink {
    path: PathBuf,
    cap: u64,
    state: Mutex<JsonlState>,
}

impl JsonlSink {
    /// Create (truncate) the log file with the default rotation cap.
    /// Parent directories are created.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Self::create_with_cap(path, DEFAULT_JSONL_CAP_BYTES)
    }

    /// Create (truncate) the log file, rotating once it would exceed
    /// `cap_bytes`. A cap of 0 disables rotation.
    pub fn create_with_cap(path: &Path, cap_bytes: u64) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(Self {
            path: path.to_path_buf(),
            cap: cap_bytes,
            state: Mutex::new(JsonlState { out: Some(BufWriter::new(file)), written: 0 }),
        })
    }

    /// The path the rotated-out generation is moved to:
    /// `events.jsonl` → `events.1.jsonl`.
    pub fn rotated_path(path: &Path) -> PathBuf {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("events");
        match path.extension().and_then(|e| e.to_str()) {
            Some(ext) => path.with_file_name(format!("{stem}.1.{ext}")),
            None => path.with_file_name(format!("{stem}.1")),
        }
    }

    fn rotate(&self, state: &mut JsonlState) {
        if let Some(w) = state.out.as_mut() {
            let _ = w.flush();
        }
        state.out = None; // close before rename
        let rotated = Self::rotated_path(&self.path);
        if std::fs::rename(&self.path, &rotated).is_err() {
            // Rename failed (e.g. cross-device edge case): keep appending to
            // the oversized file rather than losing events.
            match std::fs::OpenOptions::new().append(true).open(&self.path) {
                Ok(f) => state.out = Some(BufWriter::new(f)),
                Err(_) => return,
            }
            return;
        }
        // On disk trouble the log is simply dropped; fuzzing continues.
        if let Ok(f) = File::create(&self.path) {
            state.out = Some(BufWriter::new(f));
            state.written = 0;
        }
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, ev: &Event) {
        let mut state = relock(&self.state);
        if state.out.is_none() {
            return;
        }
        let mut line = ev.to_json();
        line.push('\n');
        if self.cap > 0 && state.written + line.len() as u64 > self.cap && state.written > 0 {
            self.rotate(&mut state);
        }
        if let Some(w) = state.out.as_mut() {
            if w.write_all(line.as_bytes()).is_err() {
                // Disk trouble must not kill a long campaign: drop the writer
                // and keep fuzzing without the event log.
                state.out = None;
            } else {
                state.written += line.len() as u64;
            }
        }
    }

    fn flush(&self) {
        let mut state = relock(&self.state);
        if let Some(w) = state.out.as_mut() {
            let _ = w.flush();
        }
    }
}

/// In-memory sink: buffers events for later inspection (tests) or for the
/// deterministic per-worker merge of the parallel campaign path.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Take all buffered events, leaving the sink empty.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut relock(&self.events))
    }

    /// Copy of the buffered events.
    pub fn snapshot(&self) -> Vec<Event> {
        relock(&self.events).clone()
    }

    pub fn len(&self) -> usize {
        relock(&self.events).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for MemorySink {
    fn emit(&self, ev: &Event) {
        relock(&self.events).push(ev.clone());
    }
}

/// Replay backlog kept for late subscribers: the last N events.
const BROADCAST_REPLAY: usize = 256;

/// Per-subscriber channel depth. Slow consumers lose events (lossy live
/// view) rather than back-pressuring the campaign.
const BROADCAST_DEPTH: usize = 1024;

struct BroadcastState {
    subscribers: Vec<SyncSender<Event>>,
    replay: VecDeque<Event>,
}

/// Fan-out sink feeding live subscribers (the `/events` SSE handlers).
///
/// Delivery is best-effort: a subscriber whose channel is full has that
/// event dropped, and a disconnected subscriber is pruned on the next emit.
/// The campaign thread never blocks on a slow or dead HTTP client, and the
/// sink is explicitly a *live lossy view* — the deterministic record is the
/// JSONL log / merge replay, never this stream.
#[derive(Default)]
pub struct BroadcastSink {
    state: Mutex<BroadcastState>,
}

impl Default for BroadcastState {
    fn default() -> Self {
        Self { subscribers: Vec::new(), replay: VecDeque::with_capacity(BROADCAST_REPLAY) }
    }
}

impl BroadcastSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new subscriber. The receiver is primed with the replay
    /// backlog (up to the channel depth) so a freshly attached client sees
    /// recent history immediately.
    pub fn subscribe(&self) -> Receiver<Event> {
        let (tx, rx) = std::sync::mpsc::sync_channel(BROADCAST_DEPTH);
        let mut state = relock(&self.state);
        for ev in state.replay.iter() {
            if tx.try_send(ev.clone()).is_err() {
                break;
            }
        }
        state.subscribers.push(tx);
        rx
    }

    pub fn subscriber_count(&self) -> usize {
        relock(&self.state).subscribers.len()
    }
}

impl EventSink for BroadcastSink {
    fn emit(&self, ev: &Event) {
        let mut state = relock(&self.state);
        if state.replay.len() == BROADCAST_REPLAY {
            state.replay.pop_front();
        }
        state.replay.push_back(ev.clone());
        state.subscribers.retain(|tx| match tx.try_send(ev.clone()) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => true, // drop event, keep subscriber
            Err(TrySendError::Disconnected(_)) => false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_buffers_and_drains() {
        let sink = MemorySink::new();
        sink.emit(&Event::ExecStart { worker: 0, exec: 0 });
        sink.emit(&Event::WorkerDied { worker: 0, error: "boom".into() });
        assert_eq!(sink.len(), 2);
        let evs = sink.drain();
        assert_eq!(evs.len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        let path = std::env::temp_dir().join("lego_observe_sink_test.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.emit(&Event::ExecStart { worker: 0, exec: 0 });
        sink.emit(&Event::CoverageGain { op: crate::MutOp::Synthesis, edges: 3 });
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.starts_with("{\"type\":\"") && l.ends_with('}')));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_sink_rotates_at_cap() {
        let dir = std::env::temp_dir().join("lego_observe_rotate_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        // Cap sized for two ~42-byte lines: the third event rotates.
        let sink = JsonlSink::create_with_cap(&path, 100).unwrap();
        for i in 0..4 {
            sink.emit(&Event::ExecStart { worker: 0, exec: i });
        }
        sink.flush();
        let rotated = JsonlSink::rotated_path(&path);
        assert_eq!(rotated.file_name().unwrap().to_str().unwrap(), "events.1.jsonl");
        assert!(rotated.exists(), "rotation did not happen");
        let live = std::fs::read_to_string(&path).unwrap();
        let old = std::fs::read_to_string(&rotated).unwrap();
        // One rotation: the first two events moved aside, the rest are live.
        assert_eq!(live.lines().count() + old.lines().count(), 4);
        assert!(old.contains("\"exec\":0") && old.contains("\"exec\":1"), "{old}");
        assert!(live.contains("\"exec\":2") && live.contains("\"exec\":3"), "{live}");
        assert!(live.lines().chain(old.lines()).all(|l| l.starts_with("{\"type\":\"ExecStart\"")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn broadcast_sink_replays_and_prunes() {
        let sink = BroadcastSink::new();
        sink.emit(&Event::ExecStart { worker: 0, exec: 0 });
        // Late subscriber still sees the backlog.
        let rx = sink.subscribe();
        assert_eq!(sink.subscriber_count(), 1);
        sink.emit(&Event::WorkerDied { worker: 0, error: "boom".into() });
        let got: Vec<Event> = rx.try_iter().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].type_name(), "ExecStart");
        assert_eq!(got[1].type_name(), "WorkerDied");
        // Dropped receiver is pruned on the next emit.
        drop(rx);
        sink.emit(&Event::ExecStart { worker: 0, exec: 1 });
        assert_eq!(sink.subscriber_count(), 0);
    }
}
