//! Structured events and spans.
//!
//! An [`Event`] is a named occurrence with string fields, an optional
//! duration, and (when tracing is enabled) the trace/span identity that
//! places it in a causal tree. Events land in a bounded in-memory ring
//! (oldest dropped first, drops counted). A [`SpanGuard`] is an RAII
//! timer: created at the start of an operation, it records a
//! `hac_span_duration_us{span="…"}` histogram sample and pushes an event
//! when dropped; operations slower than the configured threshold are
//! additionally copied to the slow-op log.
//!
//! Entering a span installs it as the thread's current trace context (see
//! [`crate::trace`]): spans opened underneath become its children, and the
//! previous context is restored when the guard drops.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::metrics::Counter;
use crate::sync::lock;
use crate::trace::{self, TraceContext};
use crate::Obs;

/// One recorded occurrence.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event (or span) name.
    pub name: String,
    /// Free-form `(key, value)` fields.
    pub fields: Vec<(String, String)>,
    /// Microseconds since the owning [`Obs`] was created.
    pub at_micros: u64,
    /// Duration for span-end events; `None` for instant events.
    pub duration_micros: Option<u64>,
    /// Trace this event belongs to, when recorded with tracing enabled.
    pub trace_id: Option<u64>,
    /// This span's id (`None` for instant events).
    pub span_id: Option<u64>,
    /// The enclosing span at record time, if any.
    pub parent_span_id: Option<u64>,
}

pub(crate) fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Event {
    /// Renders `name{k=v,…} [duration] [trace=…]` for human output.
    pub fn render(&self) -> String {
        let mut out = self.name.clone();
        if !self.fields.is_empty() {
            let inner: Vec<String> = self
                .fields
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&format!("{{{}}}", inner.join(",")));
        }
        if let Some(d) = self.duration_micros {
            out.push_str(&format!(" {d}us"));
        }
        if let Some(t) = self.trace_id {
            out.push_str(&format!(" trace={}", trace::format_id(t)));
        }
        out
    }

    /// Renders the event as a JSON object (ids as 16-char hex strings;
    /// absent fields omitted).
    pub fn to_json(&self) -> String {
        let mut parts: Vec<String> = vec![
            format!("\"name\":{}", jstr(&self.name)),
            format!("\"at_us\":{}", self.at_micros),
        ];
        if let Some(d) = self.duration_micros {
            parts.push(format!("\"duration_us\":{d}"));
        }
        if let Some(t) = self.trace_id {
            parts.push(format!("\"trace_id\":\"{}\"", trace::format_id(t)));
        }
        if let Some(s) = self.span_id {
            parts.push(format!("\"span_id\":\"{}\"", trace::format_id(s)));
        }
        if let Some(p) = self.parent_span_id {
            parts.push(format!("\"parent_span_id\":\"{}\"", trace::format_id(p)));
        }
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{}", jstr(k), jstr(v)))
            .collect();
        parts.push(format!("\"fields\":{{{}}}", fields.join(",")));
        format!("{{{}}}", parts.join(","))
    }
}

/// Bounded ring of recent events; pushing past capacity drops the oldest
/// (and counts the drop).
pub struct EventRing {
    events: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
    drop_counter: Option<Counter>,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            events: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            drop_counter: None,
        }
    }

    /// Like [`new`](Self::new), but overflow evictions also bump `counter`
    /// (the `hac_events_dropped_total{ring=…}` series on [`Obs`] rings).
    pub fn with_drop_counter(capacity: usize, counter: Counter) -> Self {
        let mut ring = EventRing::new(capacity);
        ring.drop_counter = Some(counter);
        ring
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&self, event: Event) {
        let mut events = lock(&self.events);
        if events.len() == self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = &self.drop_counter {
                c.inc();
            }
        }
        events.push_back(event);
    }

    /// Copies the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        lock(&self.events).iter().cloned().collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        lock(&self.events).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted due to overflow since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Trace identity captured when a span opens with tracing enabled.
struct SpanTrace {
    ctx: TraceContext,
    parent_span_id: Option<u64>,
    prev: Option<TraceContext>,
}

/// RAII span: times an operation and records it on drop.
///
/// Dropping the guard records the duration into
/// `hac_span_duration_us{span="<name>"}`, pushes a span-end event into the
/// recent-events ring, and — if the duration meets the slow-op threshold —
/// copies the event to the slow-op log and bumps `hac_slow_ops_total`.
///
/// While the guard lives, its trace context is the thread's current one
/// ([`trace::current`]); the previous context is restored on drop.
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    name: &'static str,
    fields: Vec<(String, String)>,
    start: Instant,
    tracing: Option<SpanTrace>,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn enter(obs: &'a Obs, name: &'static str, fields: Vec<(String, String)>) -> Self {
        let tracing = if trace::tracing_enabled() {
            let prev = trace::current();
            let ctx = TraceContext {
                trace_id: prev.map(|p| p.trace_id).unwrap_or_else(trace::next_id),
                span_id: trace::next_id(),
            };
            trace::set_current(Some(ctx));
            Some(SpanTrace {
                ctx,
                parent_span_id: prev.map(|p| p.span_id),
                prev,
            })
        } else {
            None
        };
        SpanGuard {
            obs,
            name,
            fields,
            start: Instant::now(),
            tracing,
        }
    }

    /// Adds a field after entry (for values only known mid-span).
    pub fn field(&mut self, key: &str, value: impl std::fmt::Display) {
        self.fields.push((key.to_string(), value.to_string()));
    }

    /// Elapsed time so far, in microseconds.
    pub fn elapsed_micros(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// This span's trace context, when tracing was enabled at entry.
    pub fn context(&self) -> Option<TraceContext> {
        self.tracing.as_ref().map(|t| t.ctx)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let duration = self.start.elapsed().as_micros() as u64;
        // Record while this span is still the current context so the
        // histogram keeps its trace id as the bucket exemplar.
        self.obs
            .registry()
            .histogram("hac_span_duration_us", &[("span", self.name)])
            .record(duration);
        let event = Event {
            name: self.name.to_string(),
            fields: std::mem::take(&mut self.fields),
            at_micros: self.obs.uptime_micros(),
            duration_micros: Some(duration),
            trace_id: self.tracing.as_ref().map(|t| t.ctx.trace_id),
            span_id: self.tracing.as_ref().map(|t| t.ctx.span_id),
            parent_span_id: self.tracing.as_ref().and_then(|t| t.parent_span_id),
        };
        if duration >= self.obs.slow_op_threshold_micros() {
            self.obs
                .registry()
                .counter("hac_slow_ops_total", &[("span", self.name)])
                .inc();
            self.obs.slow_ops_ring().push(event.clone());
        }
        self.obs.events_ring().push(event);
        if let Some(t) = self.tracing.take() {
            trace::set_current(t.prev);
        }
    }
}

/// Opens a span on the global [`Obs`](crate::Obs); the returned
/// [`SpanGuard`] records duration (and slow-op status) when dropped.
///
/// ```
/// let _span = hac_obs::span!("reindex_pass", path = "/sem/query");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::global().span($name, Vec::new())
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::global().span(
            $name,
            vec![$((stringify!($key).to_string(), format!("{}", $value))),+],
        )
    };
}
