//! Sample summaries and the process facts the report echoes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nearest-rank percentile `p` (0–100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Run `f`, returning its value and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Median seconds of `reps` runs of `f` (its results pass through
/// `black_box` so the work cannot be optimized away).
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time this process has used so far, all threads included, in
/// seconds (`utime + stime` of `/proc/self/stat`, 100 ticks per second).
/// Time the host steals from the machine is not charged to it.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold
    // spaces: state is the first, utime the 12th, stime the 13th.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host's stolen CPU time so far, in ticks: the `steal` column of
/// the `cpu` line of `/proc/stat`; 0 where the kernel reports none.
pub fn host_steal_ticks() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0.0)
}

/// One reading of the loop clock.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Seconds into the loop.
    pub at_s: f64,
    /// [`host_steal_ticks`] at that moment.
    pub steal: f64,
    /// [`process_cpu_s`] at that moment.
    pub cpu_s: f64,
}

fn mark(t0: Instant) -> Mark {
    Mark {
        at_s: t0.elapsed().as_secs_f64(),
        steal: host_steal_ticks(),
        cpu_s: process_cpu_s().unwrap_or(0.0),
    }
}

/// A side thread taking a [`Mark`] every `every` while the loop runs,
/// so the loop can be cut into windows with their stolen and used CPU
/// time.
pub struct Sampler {
    t0: Instant,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<Mark>>,
}

impl Sampler {
    /// Start marking from `t0` (taking the first mark now).
    pub fn start(t0: Instant, every: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let first = mark(t0);
        let handle = std::thread::spawn(move || {
            let mut marks = vec![first];
            for k in 1u32.. {
                let due = t0 + every * k;
                while !flag.load(Ordering::Relaxed) && Instant::now() < due {
                    std::thread::park_timeout(due.saturating_duration_since(Instant::now()));
                }
                if flag.load(Ordering::Relaxed) {
                    break;
                }
                marks.push(mark(t0));
            }
            marks
        });
        Sampler { t0, stop, handle }
    }

    /// Stop, and return every mark plus a last one taken now.
    pub fn finish(self) -> Vec<Mark> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.thread().unpark();
        let mut marks = self.handle.join().unwrap_or_default();
        marks.push(mark(self.t0));
        marks
    }
}
