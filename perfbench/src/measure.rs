//! Wall-clock samples, percentiles and process resource usage.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Latency samples of one operation class, in nanoseconds.
#[derive(Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// Exact quantile (nearest rank over the sorted samples), in ns.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.ns.clone();
        v.sort_unstable();
        quantile_sorted(&v, q)
    }
}

fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

/// What one pass over an operation stream measured.
#[derive(Default)]
pub struct StreamOut {
    pub reads: Samples,
    pub writes: Samples,
    pub all: Samples,
    pub wall_ns: u64,
    pub cpu_us: f64,
    /// Operations that erred or whose answer failed its check.
    pub failed: u64,
}

impl StreamOut {
    /// Records one operation's latency and whether its answer passed.
    pub fn record(&mut self, read: bool, ns: u64, ok: bool) {
        if read {
            self.reads.push(ns);
        } else {
            self.writes.push(ns);
        }
        self.all.push(ns);
        self.failed += u64::from(!ok);
    }
}

/// Median of a set of per-round figures.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Layout of `struct rusage` on 64-bit Linux: two `timeval`s followed by
/// fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_s: i64,
    utime_us: i64,
    stime_s: i64,
    stime_us: i64,
    rest: [i64; 14],
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timespec {
    s: i64,
    ns: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Restricts this process to the CPU it is running on. Call it before the
/// process starts a thread: threads inherit the mask.
pub fn pin_to_one_cpu() {
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).unwrap_or(0) % 1024;
    let mut mask = [0u64; 16]; // a 1024-bit `cpu_set_t`
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid, initialized 128-byte `cpu_set_t` that
    // outlives the call; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity to the current CPU cannot fail");
}

const SCHED_IDLE: i32 = 5;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the [`IdleFiller`] has used so far, in ns.
static FILLER_NS: AtomicU64 = AtomicU64::new(0);

fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a valid, writable `struct timespec` for the
    // duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the calling thread's CPU clock exists");
    (ts.s * 1_000_000_000 + ts.ns) as u64
}

/// A thread of the lowest scheduling class (`SCHED_IDLE`) that spins
/// while it lives, so the CPU it shares with the process's other threads
/// never halts. It runs only when no other thread of the CPU can: any
/// thread that wakes takes the CPU from it at once. On a virtual machine
/// a halted vCPU goes back to the host, and how soon the host runs it
/// again when one of the process's threads wakes follows the host's load;
/// with the vCPU kept busy that delay leaves the figures, while every
/// wait the program itself makes (its sleeps, its queues) stays in them.
/// [`cpu_us`] leaves out the CPU time the filler uses.
pub struct IdleFiller {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl IdleFiller {
    /// Starts the filler. It keeps the CPU affinity of the calling thread.
    pub fn start() -> IdleFiller {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let priority = 0i32; // the only priority `SCHED_IDLE` takes
            // SAFETY: `priority` is a valid `struct sched_param` (one
            // `int`) that outlives the call; pid 0 names the calling
            // thread.
            let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) };
            assert_eq!(rc, 0, "a thread may lower its own scheduling class");
            while !flag.load(Ordering::Relaxed) {
                for _ in 0..64 {
                    std::hint::spin_loop();
                }
                FILLER_NS.store(thread_cpu_ns(), Ordering::Relaxed);
            }
        });
        IdleFiller {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for IdleFiller {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> RUsage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a properly aligned, writable `struct rusage` of the
    // size the kernel fills for RUSAGE_SELF on 64-bit Linux; the pointer
    // is valid for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    ru
}

/// User + system CPU time of the whole process (all threads, including
/// ones that have exited) but the [`IdleFiller`], in microseconds.
pub fn cpu_us() -> f64 {
    let ru = rusage();
    let all = ((ru.utime_s + ru.stime_s) * 1_000_000 + ru.utime_us + ru.stime_us) as f64;
    all - FILLER_NS.load(Ordering::Relaxed) as f64 / 1e3
}

/// Peak resident set size of this process image so far, in MB: `VmHWM`,
/// which starts afresh at `exec` (unlike `ru_maxrss`, which carries the
/// peak of the parent that forked the process).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}
