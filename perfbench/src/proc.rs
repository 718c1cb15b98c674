//! Process-level readings from `/proc/self` (Linux; absent elsewhere).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A numeric field of `/proc/self/status`, e.g. `"Threads:"`.
pub fn status_field(prefix: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(prefix))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// User + system CPU time of this process so far, seconds.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (100 Hz on Linux).
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Samples the process's thread count every 2 ms until stopped: threads
/// a round spawns and joins are gone by the time a rep returns.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: std::thread::JoinHandle<()>,
}

impl ThreadSampler {
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let (stop2, peak2) = (Arc::clone(&stop), Arc::clone(&peak));
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::SeqCst) {
                if let Some(n) = status_field("Threads:") {
                    peak2.fetch_max(n, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        ThreadSampler { stop, peak, handle }
    }

    /// Stops sampling and returns the peak, not counting the sampler.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("thread sampler panicked");
        self.peak.load(Ordering::Relaxed).saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn proc_readings_are_present_and_plausible() {
        assert!(status_field("Threads:").unwrap() >= 1);
        assert!(status_field("VmHWM:").unwrap() > 100);
        assert!(cpu_seconds().unwrap() >= 0.0);
        let sampler = ThreadSampler::start();
        std::thread::scope(|s| {
            s.spawn(|| std::thread::sleep(Duration::from_millis(20)));
        });
        assert!(sampler.finish() >= 2);
    }
}
