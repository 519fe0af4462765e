//! [`DurableFile`]: the staging-file sink behind the CLI's durable
//! compress paths, `frame -o` and `resume`.
//!
//! [`crate::FrameWriter`] flushes its sink once per emitted frame. Here a
//! flush hands that frame's `sync_data` to the sink's syncer thread and
//! returns at once; the next write, flush or finish waits for it first.
//! So every frame is still synced before the next one is written, and
//! what overlaps the disk is the compress of the next frame — the
//! software form of the paper's background filling, where the second BRAM
//! port fills while the match FSM works (DESIGN §9.5).
//!
//! At most one sync is in flight. A failed sync (or a failed hook) comes
//! back from the next write, flush or finish, and every call after it
//! fails too, so nothing can be written or promoted past a frame that is
//! not known to be durable. The syncer thread starts at the first flush
//! and is joined when the sink is finished or dropped; if it cannot
//! start, the writer runs each sync itself when it next waits.

use std::fs::File;
use std::io::{self, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

fn no_hook() -> io::Result<()> {
    Ok(())
}

/// The sink's syncer thread: one `sync_data` per request, outcomes in
/// order.
#[derive(Debug)]
struct Syncer {
    requests: Sender<()>,
    outcomes: Receiver<io::Result<()>>,
    thread: JoinHandle<()>,
}

impl Syncer {
    /// A syncer for `file`; `None` if no thread could be started.
    fn start(file: &Arc<File>) -> Option<Syncer> {
        let (requests, pending) = channel::<()>();
        let (done, outcomes) = channel();
        let file = Arc::clone(file);
        let thread = std::thread::Builder::new()
            .name("lzfpga-fsync".to_string())
            .spawn(move || {
                for () in pending {
                    if done.send(file.sync_data()).is_err() {
                        break;
                    }
                }
            })
            .ok()?;
        Some(Syncer { requests, outcomes, thread })
    }

    /// Stop the thread once its last sync has run.
    fn join(self) {
        drop(self.requests);
        let _ = self.thread.join();
    }
}

/// A staging file whose every flush is a durability point, synced in the
/// background while the caller computes the next frame.
///
/// `after_sync` (set only by the tests) runs on the writing thread once
/// per flush, right after that flush's sync has returned and before
/// anything else reaches the file; an error from it counts as a failed
/// sync.
#[derive(Debug)]
pub struct DurableFile<H = fn() -> io::Result<()>> {
    file: Arc<File>,
    syncer: Option<Syncer>,
    /// A flush whose sync nobody has waited for yet.
    in_flight: bool,
    failed: bool,
    after_sync: H,
}

impl DurableFile {
    /// A sink over `file` (positioned where the next frame goes) with no
    /// hook.
    pub fn new(file: File) -> Self {
        DurableFile::with_hook(file, no_hook)
    }
}

impl<H: FnMut() -> io::Result<()>> DurableFile<H> {
    /// A sink over `file` that runs `after_sync` after every sync returns.
    fn with_hook(file: File, after_sync: H) -> Self {
        DurableFile {
            file: Arc::new(file),
            syncer: None,
            in_flight: false,
            failed: false,
            after_sync,
        }
    }

    /// Wait for the sync in flight, if any, then run the hook.
    fn settle(&mut self) -> io::Result<()> {
        if self.failed {
            return Err(io::Error::other("an earlier frame sync failed; the staged file is stale"));
        }
        if std::mem::take(&mut self.in_flight) {
            // A syncer that died before answering leaves the sync to us.
            let synced = match self.syncer.as_ref().and_then(|s| s.outcomes.recv().ok()) {
                Some(synced) => synced,
                None => self.file.sync_data(),
            };
            if let Err(e) = synced.and_then(|()| (self.after_sync)()) {
                self.failed = true;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Wait for the sync in flight, then `sync_all` the file: the finished
    /// stream, metadata included, is durable when this returns.
    ///
    /// # Errors
    /// The in-flight sync's or hook's error, or the final sync's.
    pub fn finish(mut self) -> io::Result<()> {
        self.settle()?;
        self.file.sync_all()
    }
}

impl<H: FnMut() -> io::Result<()>> Write for DurableFile<H> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.settle()?;
        (&*self.file).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.settle()?;
        if self.syncer.is_none() {
            self.syncer = Syncer::start(&self.file);
        }
        // Unsent (no syncer), the sync runs in the next `settle`.
        if let Some(dead) = self.syncer.take_if(|s| s.requests.send(()).is_err()) {
            dead.join();
        }
        self.in_flight = true;
        Ok(())
    }
}

impl<H> Drop for DurableFile<H> {
    fn drop(&mut self) {
        // An abandoned stream's last sync still runs to its end.
        if let Some(syncer) = self.syncer.take() {
            syncer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scan_partial, FrameConfig, FrameWriter};
    use lzfpga_lzss::LzssParams;
    use lzfpga_workloads::{generate, Corpus};
    use std::path::PathBuf;

    const FRAME: usize = 8 * 1024;

    struct TempFile(PathBuf);

    impl TempFile {
        fn new(tag: &str) -> TempFile {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos();
            TempFile(
                std::env::temp_dir()
                    .join(format!("lzfpga-durable-{tag}-{}-{nanos:x}", std::process::id())),
            )
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn cfg() -> FrameConfig {
        FrameConfig { frame_bytes: FRAME, ..FrameConfig::default() }
    }

    fn in_memory(data: &[u8]) -> Vec<u8> {
        let mut w = FrameWriter::new(Vec::new(), cfg(), LzssParams::paper_fast()).unwrap();
        w.write_all(data).unwrap();
        w.finish().unwrap().0
    }

    #[test]
    fn staged_bytes_equal_the_in_memory_stream() {
        // 0, 1, 2 and 17 whole frames, and 2 frames plus a partial tail.
        for len in [0, FRAME, 2 * FRAME, 17 * FRAME, 2 * FRAME + 1234] {
            let data = generate(Corpus::Mixed, len as u64, len);
            let tmp = TempFile::new("same");
            let mut syncs = 0u32;
            let sink = DurableFile::with_hook(File::create(&tmp.0).unwrap(), || {
                syncs += 1;
                Ok(())
            });
            let mut w = FrameWriter::new(sink, cfg(), LzssParams::paper_fast()).unwrap();
            // Dribble the input so frames complete mid-write too.
            for chunk in data.chunks(3000) {
                w.write_all(chunk).unwrap();
            }
            let (sink, summary) = w.finish().unwrap();
            sink.finish().unwrap();
            assert_eq!(std::fs::read(&tmp.0).unwrap(), in_memory(&data), "{len} bytes");
            // One sync per frame plus one for the trailer, each followed
            // by exactly one hook call.
            assert_eq!(syncs, summary.frames + 1, "{len} bytes");
        }
    }

    #[test]
    fn a_failed_sync_stops_the_stream_at_the_last_durable_frame() {
        let data = generate(Corpus::Wiki, 9, 6 * FRAME);
        for fail_on in 1..=7u32 {
            let tmp = TempFile::new("fail");
            let mut hits = 0u32;
            let sink = DurableFile::with_hook(File::create(&tmp.0).unwrap(), || {
                hits += 1;
                if hits == fail_on {
                    Err(io::Error::other("injected"))
                } else {
                    Ok(())
                }
            });
            let mut w = FrameWriter::new(sink, cfg(), LzssParams::paper_fast()).unwrap();
            let written = w.write_all(&data);
            let outcome = match written {
                Ok(()) => w.finish().and_then(|(sink, _)| sink.finish()),
                Err(e) => Err(e),
            };
            assert!(outcome.is_err(), "hook failure {fail_on} was swallowed");
            // Nothing reached the file after the failed sync: the staged
            // prefix is exactly the frames whose syncs succeeded, plus the
            // one whose sync failed (its bytes were written, not proven).
            let scan = scan_partial(&std::fs::read(&tmp.0).unwrap());
            if fail_on <= 6 {
                assert_eq!(scan.frames, fail_on, "hook failure {fail_on}");
                assert!(!scan.complete);
            } else {
                assert!(scan.complete, "the trailer was written before its sync failed");
            }
        }
    }

    #[test]
    fn every_call_after_a_failure_fails() {
        let tmp = TempFile::new("sticky");
        let mut sink =
            DurableFile::with_hook(File::create(&tmp.0).unwrap(), || Err(io::Error::other("no")));
        sink.write_all(b"frame").unwrap();
        sink.flush().unwrap();
        assert!(sink.write(b"next").is_err(), "write after a failed sync");
        assert!(sink.flush().is_err(), "flush after a failed sync");
        assert!(sink.write(b"again").is_err(), "the failure is sticky");
        assert!(sink.finish().is_err(), "finish after a failed sync");
        assert_eq!(std::fs::read(&tmp.0).unwrap(), b"frame");
    }
}
