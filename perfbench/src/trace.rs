//! Spans recorded from outside the program, around calls into each
//! layer's public functions, plus the counting allocator the traced
//! binary installs.
//!
//! A span holds its name, start, end, parent span and op id, and the
//! allocations made while it was open. Spans stay in a preallocated
//! in-memory log and are written out once, at exit. With tracing off
//! (the untraced binary) [`span`] costs one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static TRACING: AtomicBool = AtomicBool::new(false);

/// A global allocator that counts allocations and requested bytes. Only
/// the traced binary installs it, so untraced runs pay nothing for it.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics
// and publish no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller guarantees `layout` has non-zero size, as
        // `GlobalAlloc::alloc` requires; it is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        // SAFETY: `ptr`/`layout` come from `System` via this allocator and
        // the caller guarantees `new_size` is valid for `layout`'s align.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn alloc_counters() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// One closed span. Times are ns since tracing was enabled; `allocs` and
/// `bytes` are inclusive of child spans.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
    pub allocs: u64,
    pub bytes: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
    op: u32,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Turns span recording on for this (the only measuring) thread, with
/// room for `capacity` spans before the log has to grow.
pub fn enable(capacity: usize) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(64),
            op: 0,
        });
    });
    TRACING.store(true, Relaxed);
}

#[inline]
fn enabled() -> bool {
    TRACING.load(Relaxed)
}

/// Tags the spans opened from now on with op id `op`.
pub fn set_op(op: u32) {
    if enabled() {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.op = op;
            }
        });
    }
}

/// An open span; closes when dropped.
#[must_use = "a span closes when its guard is dropped"]
pub struct SpanGuard {
    idx: Option<u32>,
}

impl SpanGuard {
    /// Renames the span (e.g. an admission classified warm or cold only
    /// after it returns).
    pub fn rename(&self, name: &'static str) {
        if let Some(idx) = self.idx {
            TRACER.with(|t| {
                if let Some(t) = t.borrow_mut().as_mut() {
                    t.spans[idx as usize].name = name;
                }
            });
        }
    }
}

/// Opens a span named `name` under the innermost open span.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { idx: None };
    }
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let (allocs, bytes) = alloc_counters();
        let idx = t.spans.len() as u32;
        let rec = SpanRec {
            name,
            start_ns: t.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: t.open.last().copied(),
            op: t.op,
            allocs,
            bytes,
        };
        t.spans.push(rec);
        t.open.push(idx);
        Some(idx)
    });
    SpanGuard { idx }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let Some(t) = t.as_mut() else { return };
            let (allocs, bytes) = alloc_counters();
            let end = t.epoch.elapsed().as_nanos() as u64;
            let rec = &mut t.spans[idx as usize];
            rec.end_ns = end;
            rec.allocs = allocs - rec.allocs;
            rec.bytes = bytes - rec.bytes;
            t.open.pop();
        });
    }
}

/// Times `f` inside a span named `name`.
#[inline]
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = span(name);
    f()
}

/// The recorded spans (empty when tracing is off).
pub fn take() -> Vec<SpanRec> {
    TRACER.with(|t| {
        t.borrow_mut()
            .as_mut()
            .map(|t| std::mem::take(&mut t.spans))
            .unwrap_or_default()
    })
}

/// Per-name samples derived from a span log.
#[derive(Default, Debug)]
pub struct SpanStats {
    /// Self time (span minus the time its children cover), ns.
    pub self_ns: Vec<f64>,
    /// Inclusive time, ns.
    pub total_ns: Vec<f64>,
    /// Self allocation count and bytes.
    pub self_allocs: Vec<f64>,
    pub self_bytes: Vec<f64>,
}

/// Groups the spans that `keep` selects by name, subtracting each span's
/// children from its self time and self allocations. Spans nest strictly
/// (one thread), so children never overlap and subtraction is exact.
pub fn stats(
    spans: &[SpanRec],
    keep: impl Fn(&SpanRec) -> bool,
) -> BTreeMap<&'static str, SpanStats> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    let mut child_bytes = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            child_ns[p] += s.end_ns - s.start_ns;
            child_allocs[p] += s.allocs;
            child_bytes[p] += s.bytes;
        }
    }
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| keep(s)) {
        let total = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.total_ns.push(total as f64);
        e.self_ns.push(total.saturating_sub(child_ns[i]) as f64);
        e.self_allocs
            .push(s.allocs.saturating_sub(child_allocs[i]) as f64);
        e.self_bytes
            .push(s.bytes.saturating_sub(child_bytes[i]) as f64);
    }
    out
}

/// Renders the span log as one JSON object per line.
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let mut s = String::with_capacity(spans.len() * 120);
    for (i, r) in spans.iter().enumerate() {
        let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
        s.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"allocs\":{},\"bytes\":{}}}\n",
            r.name, r.start_ns, r.end_ns, r.op, r.allocs, r.bytes
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            SpanRec {
                name: "a",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 0,
                allocs: 5,
                bytes: 50,
            },
            SpanRec {
                name: "b",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                op: 0,
                allocs: 2,
                bytes: 20,
            },
            SpanRec {
                name: "b",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
                op: 0,
                allocs: 1,
                bytes: 10,
            },
        ];
        let st = stats(&spans, |_| true);
        assert_eq!(st["a"].self_ns, vec![60.0]);
        assert_eq!(st["a"].self_allocs, vec![2.0]);
        assert_eq!(st["b"].self_ns, vec![30.0, 10.0]);
    }
}
