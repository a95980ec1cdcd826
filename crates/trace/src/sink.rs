//! Trace sinks: where recorded events go.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::event::TraceEvent;

/// Receiver of trace events. Implementations must be thread-safe: the
/// speculative TIMER driver emits from its worker threads concurrently.
pub trait TraceSink: Send + Sync {
    /// Records one event. `ts_us` is monotonic microseconds since the
    /// owning [`crate::TraceHandle`] was created; `thread` a small
    /// sequential per-thread id.
    fn record(&self, event: &TraceEvent, ts_us: u64, thread: u64);
}

/// Discards everything. A disabled [`crate::TraceHandle`] never reaches its
/// sink, so this mostly exists to make "explicitly no tracing" spellable.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: &TraceEvent, _ts_us: u64, _thread: u64) {}
}

/// Human-readable one-line-per-event sink on stderr (stdout stays clean for
/// the binaries' report output).
#[derive(Clone, Copy, Debug, Default)]
pub struct StderrSink;

impl TraceSink for StderrSink {
    fn record(&self, event: &TraceEvent, ts_us: u64, thread: u64) {
        eprintln!("{}", event.to_human(ts_us, thread));
    }
}

/// Machine-readable sink: one JSON object per line (JSONL). Lines are
/// flushed per event so a crashed run still leaves a readable recording —
/// exactly the property a flight recorder is for. Event volume is a few
/// thousand lines per run at most, so the per-line flush is immaterial.
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &TraceEvent, ts_us: u64, thread: u64) {
        // Recover from poisoning (a panicking recorder thread leaves the
        // writer consistent) and ignore I/O errors — observability must
        // never take the pipeline down.
        let mut out = self.out.lock().unwrap_or_else(|p| p.into_inner());
        let line = event.to_json(ts_us, thread);
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// One event as a [`MemorySink`] stored it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordedEvent {
    /// The event itself.
    pub event: TraceEvent,
    /// Timestamp attached at emission.
    pub ts_us: u64,
    /// Thread ordinal attached at emission.
    pub thread: u64,
}

/// In-process sink for tests: keeps every event (with its timestamp and
/// thread id) in a vector behind a mutex.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<RecordedEvent>>,
}

impl MemorySink {
    /// Snapshot of everything recorded so far, in emission order.
    pub fn events(&self) -> Vec<RecordedEvent> {
        self.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// The recorded [`TraceEvent::Gate`] events, in emission order.
    pub fn gate_events(&self) -> Vec<TraceEvent> {
        self.events()
            .into_iter()
            .map(|r| r.event)
            .filter(|e| matches!(e, TraceEvent::Gate { .. }))
            .collect()
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: &TraceEvent, ts_us: u64, thread: u64) {
        self.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(RecordedEvent {
                event: event.clone(),
                ts_us,
                thread,
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceHandle, TraceLevel};
    use std::sync::Arc;

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join("tie-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("sink-{}.jsonl", std::process::id()));
        {
            let sink = Arc::new(JsonlSink::create(&path).unwrap());
            let h = TraceHandle::new(sink, TraceLevel::Debug);
            h.emit(TraceEvent::RunStart {
                nh: 2,
                threads: 1,
                batch: 1,
                initial_coco: 10,
            });
            h.emit(TraceEvent::RunEnd {
                final_coco: 10,
                accepted: 0,
                rejected: 2,
                ties: 0,
                stop_reason: "completed",
                worker_panics: 0,
            });
        }
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"event\": "));
            assert!(line.contains("\"ts_us\": "));
            assert!(line.contains("\"thread\": "));
        }
        assert!(lines[0].contains("run_start"));
        assert!(lines[1].contains("run_end"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_sink_records_in_order_with_metadata() {
        let sink = Arc::new(MemorySink::default());
        let h = TraceHandle::new(sink.clone(), TraceLevel::Debug);
        for round in 0..3 {
            h.emit(TraceEvent::Gate {
                round,
                coco_delta: -(round as i64),
                accepted: true,
                tie: round == 0,
                coco: 0,
            });
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(sink.gate_events().len(), 3);
        for (i, rec) in events.iter().enumerate() {
            match rec.event {
                TraceEvent::Gate { round, .. } => assert_eq!(round, i),
                _ => panic!("unexpected event"),
            }
        }
    }

    #[test]
    fn sinks_are_shareable_across_threads() {
        let sink = Arc::new(MemorySink::default());
        let h = TraceHandle::new(sink.clone(), TraceLevel::Debug);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let h = h.clone();
                scope.spawn(move || {
                    h.emit(TraceEvent::Phase {
                        phase: crate::Phase::Sweep,
                        round: Some(t),
                        level: None,
                        elapsed_us: 1,
                    });
                });
            }
        });
        let events = sink.events();
        assert_eq!(events.len(), 4);
        // Each spawned thread gets its own ordinal.
        let mut threads: Vec<u64> = events.iter().map(|r| r.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), 4);
    }
}
