//! Causal request tracing: trace ids, the thread-scoped current-span
//! context, and span-tree assembly.
//!
//! Every *root* operation (a `hacsh` command, a reindex pass, a
//! server-handled request) mints a fresh trace id when its span opens with
//! no context on the thread; child spans opened while a context is current
//! inherit the trace id and record the enclosing span as their parent.
//! The context is thread-scoped (a `thread_local`), so a worker thread
//! continuing a trace that arrived over the wire calls [`continue_trace`]
//! with the propagated [`TraceContext`] before opening its spans.
//!
//! Tracing is a process-wide toggle ([`set_tracing_enabled`]); when off,
//! spans still feed the duration histograms but mint no ids, push no
//! events, and touch no thread-local state — the shape the
//! `hac-bench trace` binary measures.
//!
//! Assembly is ring-based: [`assemble`] walks a set of recorded
//! [`Event`]s and rebuilds the span tree for one trace id from the
//! `parent_span_id` links. Because rings are bounded, a tree for an old
//! trace may be partial; orphaned spans (parent already evicted) surface
//! as extra roots rather than disappearing.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::events::Event;

/// The ambient identity a span inherits and propagates: which trace the
/// current operation belongs to and which span is its immediate parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace id shared by every span of one operation, across threads and
    /// (via the wire) processes.
    pub trace_id: u64,
    /// The currently open span, i.e. the parent of any span opened next.
    pub span_id: u64,
}

impl TraceContext {
    /// Renders the trace id the way every user surface shows it.
    pub fn trace_hex(&self) -> String {
        format_id(self.trace_id)
    }
}

/// Renders an id as fixed-width lowercase hex (the `trace <id>` /
/// `/trace/<id>` form).
pub fn format_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses an id previously rendered by [`format_id`] (flexible about
/// leading zeros and case).
pub fn parse_id(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

static TRACING_ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether spans mint ids and record events (on by default).
pub fn tracing_enabled() -> bool {
    TRACING_ENABLED.load(Ordering::Relaxed)
}

/// Turns span/event recording on or off process-wide. Metrics (counters,
/// gauges, duration histograms) are unaffected.
pub fn set_tracing_enabled(on: bool) {
    TRACING_ENABLED.store(on, Ordering::Relaxed);
}

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Mints a process-unique, well-mixed, non-zero 64-bit id.
///
/// A splitmix64 step over an atomic counter seeded from the wall clock:
/// no `rand` dependency, collision-safe within a process, and distinct
/// across processes with overwhelming probability (the seed carries
/// nanosecond wall-clock entropy).
pub fn next_id() -> u64 {
    let seq = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let seq = if seq == 0 {
        // First caller: fold wall-clock entropy into the stream so two
        // processes started back to back do not share id sequences.
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        // CAS the seed in once; later callers fetch_add past it.
        let _ = NEXT_ID.compare_exchange(1, seed, Ordering::Relaxed, Ordering::Relaxed);
        seed.wrapping_sub(1)
    } else {
        seq
    };
    let mut z = seq.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z = z ^ (z >> 31);
    z.max(1)
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The thread's current trace context, if an operation is in progress.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(Cell::get)
}

pub(crate) fn set_current(ctx: Option<TraceContext>) {
    CURRENT.with(|c| c.set(ctx));
}

/// RAII guard restoring the previous thread context on drop (returned by
/// [`continue_trace`]).
pub struct ContextGuard {
    prev: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        set_current(self.prev.take());
    }
}

/// Installs `ctx` as the thread's current context — the receiving half of
/// cross-thread / cross-process propagation. Spans opened while the guard
/// lives join `ctx`'s trace as children of `ctx.span_id`.
pub fn continue_trace(ctx: TraceContext) -> ContextGuard {
    let prev = current();
    set_current(Some(ctx));
    ContextGuard { prev }
}

/// One node of an assembled span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span-end (or instant) event.
    pub event: Event,
    /// Child spans, oldest first.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.event.render());
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }

    fn to_json_value(&self) -> String {
        let children: Vec<String> = self.children.iter().map(SpanNode::to_json_value).collect();
        format!(
            "{{\"span\":{},\"children\":[{}]}}",
            self.event.to_json(),
            children.join(",")
        )
    }
}

/// The spans recorded for one trace id, assembled into a forest.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The trace id this tree was assembled for.
    pub trace_id: u64,
    /// Root spans (normally one; more when parents were evicted from the
    /// ring before assembly, or the operation is still in flight).
    pub roots: Vec<SpanNode>,
}

impl TraceTree {
    /// Total number of spans in the tree.
    pub fn span_count(&self) -> usize {
        fn count(n: &SpanNode) -> usize {
            1 + n.children.iter().map(count).sum::<usize>()
        }
        self.roots.iter().map(count).sum()
    }

    /// Indented text rendering (the `hacsh trace <id>` view).
    pub fn render(&self) -> String {
        let mut out = format!("trace {}\n", format_id(self.trace_id));
        for root in &self.roots {
            root.render_into(&mut out, 1);
        }
        out
    }

    /// JSON rendering (the `/trace/<id>` view).
    pub fn to_json(&self) -> String {
        let roots: Vec<String> = self.roots.iter().map(SpanNode::to_json_value).collect();
        format!(
            "{{\"trace_id\":\"{}\",\"span_count\":{},\"roots\":[{}]}}",
            format_id(self.trace_id),
            self.span_count(),
            roots.join(",")
        )
    }
}

/// Assembles the span tree for `trace_id` from recorded events (pass the
/// concatenation of the recent-events and slow-op rings; duplicates are
/// dropped by span id). Spans whose parent is unknown — evicted from the
/// ring, still open, or on another process — become roots.
pub fn assemble(events: &[Event], trace_id: u64) -> TraceTree {
    let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut spans: Vec<Event> = Vec::new();
    for e in events {
        if e.trace_id != Some(trace_id) {
            continue;
        }
        if let Some(id) = e.span_id {
            if !seen.insert(id) {
                continue;
            }
        }
        spans.push(e.clone());
    }
    spans.sort_by_key(|e| e.at_micros);

    // Two passes: index parented spans by parent id, then fold children
    // into their parents innermost-first so nested trees build bottom-up.
    let ids: std::collections::HashSet<u64> = spans.iter().filter_map(|e| e.span_id).collect();
    let mut nodes: Vec<SpanNode> = spans
        .into_iter()
        .map(|event| SpanNode {
            event,
            children: Vec::new(),
        })
        .collect();
    // Repeatedly attach leaves to their parents. O(n²) worst case over a
    // bounded ring (≤ a few hundred events) — simplicity wins.
    loop {
        let mut attached = false;
        let mut i = 0;
        while i < nodes.len() {
            let parent = nodes[i].event.parent_span_id;
            // Only move nodes whose own children are settled: a node with
            // pending children at this level waits until they attach first,
            // so subtrees build bottom-up. Instant events (no span id)
            // cannot have children and attach immediately.
            let is_attachable = parent.is_some_and(|p| ids.contains(&p))
                && match nodes[i].event.span_id {
                    None => true,
                    Some(sid) => !nodes.iter().any(|n| n.event.parent_span_id == Some(sid)),
                };
            if is_attachable {
                let node = nodes.remove(i);
                let parent_id = node.event.parent_span_id.expect("checked above");
                if let Some(p) = nodes
                    .iter_mut()
                    .find(|n| n.event.span_id == Some(parent_id))
                {
                    p.children.push(node);
                    p.children.sort_by_key(|c| c.event.at_micros);
                    attached = true;
                } else {
                    // Parent vanished between passes (duplicate span id
                    // filtered) — keep as root.
                    nodes.push(node);
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        if !attached {
            break;
        }
    }
    TraceTree {
        trace_id,
        roots: nodes,
    }
}

/// Span-forest wire magic (`TraceSpans` payloads).
pub const SPANS_MAGIC: [u8; 4] = *b"HACT";
/// Current span-forest format version.
pub const SPANS_VERSION: u8 = 1;

/// Serializes recorded events into the versioned binary layout the
/// wire `TraceSpans` op ships between nodes. The encoding is
/// hand-rolled (magic + version up front, strict arity) for the same
/// reason the shard map's is: a peer at a different build must fail
/// loudly, not decode positionally into garbage.
pub fn encode_spans(events: &[Event]) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + events.len() * 96);
    out.extend_from_slice(&SPANS_MAGIC);
    out.push(SPANS_VERSION);
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    let put_str = |out: &mut Vec<u8>, s: &str| {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    };
    let put_opt = |out: &mut Vec<u8>, v: Option<u64>| match v {
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        None => out.push(0),
    };
    for e in events {
        put_str(&mut out, &e.name);
        out.extend_from_slice(&(e.fields.len() as u32).to_le_bytes());
        for (k, v) in &e.fields {
            put_str(&mut out, k);
            put_str(&mut out, v);
        }
        out.extend_from_slice(&e.at_micros.to_le_bytes());
        put_opt(&mut out, e.duration_micros);
        put_opt(&mut out, e.trace_id);
        put_opt(&mut out, e.span_id);
        put_opt(&mut out, e.parent_span_id);
    }
    out
}

/// Decodes a span forest encoded by [`encode_spans`], validating magic,
/// version, arity, and the absence of trailing bytes.
///
/// # Errors
///
/// A human-readable description of the first malformation found.
pub fn decode_spans(bytes: &[u8]) -> Result<Vec<Event>, String> {
    let mut cur = bytes;
    let mut take = |n: usize, what: &str| -> Result<&[u8], String> {
        if cur.len() < n {
            return Err(format!("span forest truncated at {what}"));
        }
        let (head, tail) = cur.split_at(n);
        cur = tail;
        Ok(head)
    };
    if take(4, "magic")? != SPANS_MAGIC {
        return Err("bad span forest magic".to_string());
    }
    let version = take(1, "version")?[0];
    if version != SPANS_VERSION {
        return Err(format!("unsupported span forest version {version}"));
    }
    let u32_of =
        |b: &[u8]| -> usize { u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize };
    let u64_of = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    macro_rules! string {
        ($what:expr) => {{
            let len = u32_of(take(4, $what)?);
            let raw = take(len, $what)?;
            String::from_utf8(raw.to_vec()).map_err(|_| format!("{} not utf-8", $what))?
        }};
    }
    macro_rules! opt_u64 {
        ($what:expr) => {{
            match take(1, $what)?[0] {
                0 => None,
                1 => Some(u64_of(take(8, $what)?)),
                _ => return Err(format!("bad option flag at {}", $what)),
            }
        }};
    }
    let count = u32_of(take(4, "event count")?);
    let mut events = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let name = string!("event name");
        let field_count = u32_of(take(4, "field count")?);
        let mut fields = Vec::with_capacity(field_count.min(64));
        for _ in 0..field_count {
            let k = string!("field key");
            let v = string!("field value");
            fields.push((k, v));
        }
        events.push(Event {
            name,
            fields,
            at_micros: u64_of(take(8, "at_micros")?),
            duration_micros: opt_u64!("duration"),
            trace_id: opt_u64!("trace id"),
            span_id: opt_u64!("span id"),
            parent_span_id: opt_u64!("parent span id"),
        });
    }
    if !cur.is_empty() {
        return Err("trailing bytes after span forest".to_string());
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, at: u64, trace: u64, span: Option<u64>, parent: Option<u64>) -> Event {
        Event {
            name: name.to_string(),
            fields: vec![],
            at_micros: at,
            duration_micros: Some(1),
            trace_id: Some(trace),
            span_id: span,
            parent_span_id: parent,
        }
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "id collision");
        }
    }

    #[test]
    fn id_format_roundtrips() {
        for id in [1u64, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_id(&format_id(id)), Some(id));
        }
        assert_eq!(parse_id("DEADBEEF"), Some(0xdead_beef));
        assert_eq!(parse_id(""), None);
        assert_eq!(parse_id("zzüz"), None);
        assert_eq!(parse_id("11112222333344445"), None); // 17 digits
    }

    #[test]
    fn continue_trace_nests_and_restores() {
        assert_eq!(current(), None);
        let outer = TraceContext {
            trace_id: 7,
            span_id: 1,
        };
        let inner = TraceContext {
            trace_id: 7,
            span_id: 2,
        };
        {
            let _g1 = continue_trace(outer);
            assert_eq!(current(), Some(outer));
            {
                let _g2 = continue_trace(inner);
                assert_eq!(current(), Some(inner));
            }
            assert_eq!(current(), Some(outer));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn assemble_builds_nested_tree_and_keeps_orphans_as_roots() {
        let events = vec![
            ev("leaf_a", 30, 9, Some(3), Some(2)),
            ev("mid", 40, 9, Some(2), Some(1)),
            ev("other_trace", 10, 8, Some(77), None),
            ev("root", 50, 9, Some(1), None),
            ev("orphan", 20, 9, Some(5), Some(404)), // parent evicted
        ];
        let tree = assemble(&events, 9);
        assert_eq!(tree.span_count(), 4);
        assert_eq!(tree.roots.len(), 2, "orphan stays a root");
        let root = tree
            .roots
            .iter()
            .find(|n| n.event.name == "root")
            .expect("root present");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].event.name, "mid");
        assert_eq!(root.children[0].children[0].event.name, "leaf_a");
        let text = tree.render();
        assert!(text.contains("trace 0000000000000009"), "{text}");
        assert!(text.contains("      leaf_a"), "nested indent: {text}");
        let json = tree.to_json();
        assert!(json.contains("\"span_count\":4"), "{json}");
        assert!(json.contains("\"children\":[{\"span\""), "{json}");
    }

    #[test]
    fn span_forest_codec_roundtrips() {
        let mut e = ev("net_server_request", 42, 9, Some(3), Some(2));
        e.fields = vec![
            ("op".to_string(), "search".to_string()),
            ("node".to_string(), "127.0.0.1:7777".to_string()),
        ];
        let events = vec![e, ev("fed_shard_query", 50, 9, None, None)];
        let bytes = encode_spans(&events);
        let back = decode_spans(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "net_server_request");
        assert_eq!(back[0].fields[1].1, "127.0.0.1:7777");
        assert_eq!(back[0].span_id, Some(3));
        assert_eq!(back[1].duration_micros, Some(1));
        assert!(decode_spans(&encode_spans(&[])).unwrap().is_empty());
    }

    #[test]
    fn span_forest_rejects_truncation_magic_version_and_trailing() {
        let full = encode_spans(&[ev("a", 1, 2, Some(3), None)]);
        for cut in 0..full.len() {
            assert!(
                decode_spans(&full[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        let mut b = full.clone();
        b[0] = b'X';
        assert!(decode_spans(&b).unwrap_err().contains("magic"));
        let mut b = full.clone();
        b[4] = 99;
        assert!(decode_spans(&b).unwrap_err().contains("version 99"));
        let mut b = full;
        b.push(0);
        assert!(decode_spans(&b).unwrap_err().contains("trailing"));
    }

    #[test]
    fn assemble_dedups_span_ids_across_rings() {
        // The same span-end event can sit in both the recent ring and the
        // slow-op log; assembly must not duplicate it.
        let e = ev("slow", 10, 4, Some(11), None);
        let tree = assemble(&[e.clone(), e], 4);
        assert_eq!(tree.span_count(), 1);
    }
}
