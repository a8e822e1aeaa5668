//! In-memory span tracing from the benchmark's own call sites, plus the
//! counting allocator and `VmHWM` probe sampled at the same boundaries.
//!
//! A span is recorded around each call into a layer's public functions:
//! name, layer, start, end, parent span and request id. Spans stay in
//! memory and are written out once, after the run. With tracing off the
//! same call sites still time themselves (the end-to-end numbers need
//! those durations) but record nothing and leave the allocator counters
//! untouched.

use crate::util::Host;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The system allocator with call and byte counters, switched on only
/// for traced runs.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// touched by no other code path.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Relaxed: the counters are statistics that publish no other data.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocator calls and bytes requested so far (0 while counting is off).
pub fn alloc_totals() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Peak resident set size (`VmHWM`) in KiB; 0 where `/proc` is absent.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set size in MiB: the end-to-end `peak_rss_mib`, read
/// when a workload's timed phase ends, before its checks run.
pub fn peak_rss_mib() -> f64 {
    peak_rss_kib() as f64 / 1024.0
}

/// Starts a memory peak (a timed phase's, a cycle's or a replay's):
/// returns the heap freed so far to the OS and resets `VmHWM` to the
/// resident size now. Without the trim, glibc keeps earlier garbage
/// resident in its per-thread arenas by an amount that changes from run
/// to run (20–50 MiB in this benchmark) with how threads landed on arenas.
pub fn start_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only hands free heap pages back to the
        // OS; glibc allows it at any time, from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("cannot reset VmHWM ({e}): peak_rss_mib covers the run so far");
    }
}

/// One recorded span. Times are nanoseconds since the tracer's origin.
pub struct Span {
    pub name: &'static str,
    /// The layer the span's self time is charged to.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request (or cycle/window) id shared by the spans of one operation.
    pub req: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// `VmHWM` at the span's end (0 for per-request spans).
    pub rss_kib: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// The run's tracer; switches the allocator counters on or off.
    pub fn new(enabled: bool) -> Tracer {
        COUNTING.store(enabled, Ordering::SeqCst);
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking run")
    }

    /// Runs `f` inside a span and returns its result with the wall
    /// seconds it took. `f` receives the span's id for its children.
    pub fn span<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> (R, f64) {
        if !self.enabled {
            let t = Instant::now();
            let out = f(None);
            return (out, t.elapsed().as_secs_f64());
        }
        let (calls0, bytes0) = alloc_totals();
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                layer,
                start_ns,
                end_ns: start_ns,
                parent,
                req,
                allocs: 0,
                alloc_bytes: 0,
                rss_kib: 0,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        let (calls1, bytes1) = alloc_totals();
        let rss_kib = peak_rss_kib();
        let mut spans = self.lock();
        let s = &mut spans[id];
        s.end_ns = end_ns;
        s.allocs = calls1 - calls0;
        s.alloc_bytes = bytes1 - bytes0;
        s.rss_kib = rss_kib;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Records an already-timed interval (a client request, or a stage
    /// duration a layer reported about itself).
    pub fn record(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.lock();
        spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            req,
            allocs: 0,
            alloc_bytes: 0,
            rss_kib: 0,
        });
        Some(spans.len() - 1)
    }

    pub fn span_count(&self) -> usize {
        self.lock().len()
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// part of it its children cover (children of one span never overlap
    /// in this benchmark: each parent runs its children in sequence).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.lock();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.layer).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON line after a host-stamp header.
    pub fn write_jsonl(&self, path: &Path, host: &Host, workload: &str, seed: u64) {
        let spans = self.lock();
        let mut out = String::with_capacity(spans.len() * 120);
        out.push_str(&format!(
            "{{\"host\":\"{}\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":{}}}\n",
            host.stamp(),
            spans.len()
        ));
        for (i, s) in spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{},\"allocs\":{},\"alloc_bytes\":{},\"rss_kib\":{}}}\n",
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req,
                s.allocs,
                s.alloc_bytes,
                s.rss_kib
            ));
        }
        let written = std::fs::File::create(path)
            .and_then(|mut f| f.write_all(out.as_bytes()).and_then(|_| f.flush()));
        if let Err(e) = written {
            eprintln!("cannot write trace {}: {e}", path.display());
        }
    }
}
