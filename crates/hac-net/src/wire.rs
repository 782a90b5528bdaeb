//! The HAC wire protocol.
//!
//! Every message is one *frame*:
//!
//! ```text
//! ┌──────────┬──────────────┬───────────────────────────┐
//! │ "HACN"   │ len: u32 LE  │ payload: len bytes        │
//! │ 4 bytes  │ 4 bytes      │ request or response       │
//! └──────────┴──────────────┴───────────────────────────┘
//! ```
//!
//! HACN has one protocol version ([`PROTOCOL_VERSION`]) and one payload
//! codec per direction:
//!
//! * a [`Request`] (`id`, `body`, optional `trace` context) travels in
//!   the self-describing binary codec the VFS snapshot format uses
//!   ([`hac_vfs::persist`]) — requests are small, and the codec's strict
//!   struct arity rejects any other shape;
//! * a [`Response`] (`id`, optional `server_elapsed_us`, `body`) travels
//!   in a fixed little-endian layout ([`encode_response_into`] /
//!   [`decode_response_reusing`]) written and parsed with no reflection,
//!   because a multi-hundred-doc search result is the hot payload.
//!
//! Requests carry client-chosen `id`s and responses echo them, so a
//! client may pipeline several requests on one connection and match
//! answers out of band.
//!
//! Versioning: every peer is built from this workspace, so nothing is
//! negotiated. A client opens with `Ping { version }`; the server answers
//! `Pong` iff `version == PROTOCOL_VERSION` and otherwise refuses with
//! [`WireError::VersionMismatch`] rather than guessing at frame shapes.
//! The handshake changes nothing about the connection: one that never
//! pings is served in exactly the same codecs.

use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

use hac_core::{RemoteDoc, RemoteError};
use hac_index::ContentExpr;

/// Version of the frame payload encoding. Bump on any change to
/// [`Request`]/[`Response`]: peers at different versions refuse each other
/// at the handshake.
pub const PROTOCOL_VERSION: u16 = 5;

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"HACN";

/// Default ceiling on a single frame's payload (defends against a garbled
/// or hostile length prefix allocating gigabytes).
pub const DEFAULT_MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Trace context propagated across the wire, linking the server's
/// spans into the client's trace. Mirrors [`hac_obs::TraceContext`];
/// duplicated here so the wire shape is owned by the protocol, not the
/// observability crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// The client operation's trace id.
    pub trace_id: u64,
    /// The client-side span issuing this request (parent of server spans).
    pub span_id: u64,
}

impl From<hac_obs::TraceContext> for TraceContext {
    fn from(c: hac_obs::TraceContext) -> Self {
        TraceContext {
            trace_id: c.trace_id,
            span_id: c.span_id,
        }
    }
}

impl From<TraceContext> for hac_obs::TraceContext {
    fn from(c: TraceContext) -> Self {
        hac_obs::TraceContext {
            trace_id: c.trace_id,
            span_id: c.span_id,
        }
    }
}

/// One client→server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id; the response echoes it.
    pub id: u64,
    /// The operation.
    pub body: RequestBody,
    /// Trace context to continue server-side, when the caller is traced.
    pub trace: Option<TraceContext>,
}

impl Request {
    /// An untraced request.
    pub fn new(id: u64, body: RequestBody) -> Self {
        Request {
            id,
            body,
            trace: None,
        }
    }
}

/// Operations a client may request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Liveness + version handshake.
    Ping {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// What namespaces does this server export?
    Capabilities,
    /// Evaluate a content query against one exported namespace.
    Search {
        /// Target namespace (a server may export several backends).
        ns: String,
        /// The content projection of the query.
        query: ContentExpr,
    },
    /// Fetch one remote document's content.
    Fetch {
        /// Target namespace.
        ns: String,
        /// Remote document id (opaque to HAC).
        doc: String,
    },
    /// The namespace's durable-index manifest (HACM bytes), the root
    /// of segment-shipped replication. Answered with
    /// [`ResponseBody::Blob`].
    Manifest {
        /// Target namespace.
        ns: String,
    },
    /// One content-addressed store object by hex hash — a segment,
    /// base snapshot, or path sidecar named by a previously fetched
    /// manifest. Answered with [`ResponseBody::Blob`]; the client verifies
    /// the bytes hash to `hash` before applying them.
    Object {
        /// Target namespace.
        ns: String,
        /// Hex content hash of the object.
        hash: String,
    },
    /// The shard map (HACF bytes) of the federation this namespace
    /// belongs to, so clients and coordinator agree on placement.
    /// Answered with [`ResponseBody::Blob`], or `Err(NotFound)` when the
    /// namespace is not federated.
    ShardMap {
        /// Target namespace (any shard of the federation).
        ns: String,
    },
    /// The span forest this server recorded for one trace id (HACT
    /// bytes) — the pull half of cross-node trace stitching. Answered
    /// with [`ResponseBody::Blob`]; an id the server never saw yields an
    /// empty forest, not an error (span rings evict).
    TraceSpans {
        /// Target namespace (routes to the exporting backend).
        ns: String,
        /// The trace id whose spans are wanted.
        trace_id: u64,
    },
    /// The server's current metric-registry snapshot (HACR bytes) —
    /// one node's contribution to a federated metrics scrape. Answered
    /// with [`ResponseBody::Blob`].
    Metrics {
        /// Target namespace (routes to the exporting backend).
        ns: String,
    },
}

impl RequestBody {
    /// Metric label for this operation.
    pub fn op(&self) -> &'static str {
        match self {
            RequestBody::Ping { .. } => "ping",
            RequestBody::Capabilities => "capabilities",
            RequestBody::Search { .. } => "search",
            RequestBody::Fetch { .. } => "fetch",
            RequestBody::Manifest { .. } => "manifest",
            RequestBody::Object { .. } => "object",
            RequestBody::ShardMap { .. } => "shard_map",
            RequestBody::TraceSpans { .. } => "trace_spans",
            RequestBody::Metrics { .. } => "metrics",
        }
    }
}

/// One server→client message.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request's id (0 when the request was undecodable).
    pub id: u64,
    /// The outcome.
    pub body: ResponseBody,
    /// Server-side handling time in microseconds, returned for traced
    /// requests so the client can split wire overhead from server time.
    pub server_elapsed_us: Option<u64>,
}

impl Response {
    /// An untimed response.
    pub fn new(id: u64, body: ResponseBody) -> Self {
        Response {
            id,
            body,
            server_elapsed_us: None,
        }
    }
}

/// Outcomes a server may return.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Answer to [`RequestBody::Ping`].
    Pong {
        /// The server's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// Answer to [`RequestBody::Capabilities`].
    Capabilities {
        /// The server's [`PROTOCOL_VERSION`].
        version: u16,
        /// Exported namespace ids, sorted.
        namespaces: Vec<String>,
    },
    /// Successful search: matching remote documents.
    Docs(Vec<RemoteDoc>),
    /// Successful fetch: the document's bytes.
    Blob(Vec<u8>),
    /// The request failed.
    Err(WireError),
}

/// Errors that cross the wire. The transport-independent subset is
/// [`RemoteError`]; the rest are protocol-level refusals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The backend reported a remote error (passed through verbatim).
    Remote(RemoteError),
    /// The server exports no namespace by that id.
    UnknownNamespace(String),
    /// The request frame decoded but made no sense.
    BadRequest(String),
    /// Client and server speak different protocol versions.
    VersionMismatch {
        /// The server's version.
        server: u16,
        /// The version the client announced.
        client: u16,
    },
}

impl WireError {
    /// Collapses this error onto the mount-level [`RemoteError`] taxonomy
    /// (what scope evaluation understands).
    pub fn into_remote_error(self) -> RemoteError {
        match self {
            WireError::Remote(e) => e,
            WireError::UnknownNamespace(ns) => {
                RemoteError::Unavailable(format!("server exports no namespace {ns:?}"))
            }
            WireError::BadRequest(m) => {
                RemoteError::UnsupportedQuery(format!("server rejected request: {m}"))
            }
            WireError::VersionMismatch { server, client } => RemoteError::Unavailable(format!(
                "protocol version mismatch (server v{server}, client v{client})"
            )),
        }
    }

    /// Whether retrying the same request can plausibly succeed.
    pub fn is_retriable(&self) -> bool {
        matches!(
            self,
            WireError::Remote(RemoteError::Unavailable(_))
                | WireError::Remote(RemoteError::Timeout)
        )
    }
}

impl From<RemoteError> for WireError {
    fn from(e: RemoteError) -> Self {
        WireError::Remote(e)
    }
}

/// Writes one frame (header + payload) and flushes.
///
/// Header and payload go out as one contiguous write: on an unbuffered
/// socket that is a single syscall (and a single segment with
/// `TCP_NODELAY`) instead of two.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame's payload, enforcing the magic and `max_len`.
///
/// # Errors
///
/// `InvalidData` for a bad magic or oversized length prefix;
/// `UnexpectedEof` for a connection closed mid-frame; otherwise the
/// underlying reader's error (including timeouts).
pub fn read_frame<R: Read>(r: &mut R, max_len: u32) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    if header[..4] != FRAME_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad frame magic",
        ));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds cap {max_len}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

fn invalid(kind: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("undecodable {kind}"))
}

/// Encodes a request payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    hac_vfs::persist::encode_value(req).unwrap_or_default()
}

/// Decodes a request payload.
///
/// # Errors
///
/// `InvalidData` when the bytes are not a valid [`Request`] — the codec's
/// strict struct arity refuses any other field count.
pub fn decode_request(bytes: &[u8]) -> io::Result<Request> {
    hac_vfs::persist::decode_value(bytes).map_err(|_| invalid("request"))
}

/// Incremental HACN frame assembler for nonblocking sockets.
///
/// Bytes arrive in whatever chunks the kernel delivers; [`push`]
/// appends them and [`next_frame`] yields each completed payload as a
/// borrowed slice of the internal buffer — no per-frame `Vec`. The
/// length prefix is parsed incrementally, so a partial header or
/// payload costs nothing but the buffered bytes. Storage is reused
/// across frames: consumed bytes are compacted away lazily, so a
/// long-lived connection settles at a buffer sized to its largest
/// frame burst.
///
/// Error behavior matches the one-shot [`read_frame`]: a bad magic or
/// an oversized length prefix is `InvalidData` (and the decoder is
/// poisoned — the connection is unrecoverable mid-stream). Truncation
/// is not an error here; it is simply "no frame yet".
///
/// [`push`]: FrameDecoder::push
/// [`next_frame`]: FrameDecoder::next_frame
#[derive(Debug)]
pub struct FrameDecoder {
    max_len: u32,
    buf: Vec<u8>,
    /// Parse offset: bytes before it were consumed by earlier frames.
    start: usize,
    poisoned: bool,
    /// Reusable read block for [`read_from`](FrameDecoder::read_from):
    /// zeroed once, then overwritten by every read — a fresh stack array
    /// per call would pay a 16 KiB memset each time.
    scratch: Vec<u8>,
}

impl FrameDecoder {
    /// A decoder enforcing `max_len` on every frame's payload.
    pub fn new(max_len: u32) -> Self {
        FrameDecoder {
            max_len,
            buf: Vec::new(),
            start: 0,
            poisoned: false,
            scratch: Vec::new(),
        }
    }

    /// Performs one `read` from `r`, appending whatever arrives to the
    /// frame buffer. Returns the byte count — `0` means EOF. Blocking,
    /// timeout, and error semantics are exactly the underlying reader's.
    ///
    /// # Errors
    ///
    /// Propagates the reader's error untouched (including
    /// `WouldBlock`/`TimedOut` from socket timeouts).
    pub fn read_from<R: io::Read>(&mut self, r: &mut R) -> io::Result<usize> {
        let mut scratch = std::mem::take(&mut self.scratch);
        if scratch.is_empty() {
            scratch = vec![0u8; 16 * 1024];
        }
        let res = r.read(&mut scratch);
        if let Ok(n) = res {
            self.push(&scratch[..n]);
        }
        self.scratch = scratch;
        res
    }

    /// Appends bytes read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: once prior frames' bytes dominate the
        // buffer, slide the tail down so capacity is reused instead of
        // extended. Amortized O(1) per byte.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Yields the next complete frame's payload, or `None` if more bytes
    /// are needed. Call in a loop after each [`push`](FrameDecoder::push):
    /// one chunk may complete several pipelined frames.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a bad magic or oversized length prefix, now and
    /// on every subsequent call (the stream has lost framing).
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        if self.poisoned {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame stream already failed",
            ));
        }
        let avail = self.buf.len() - self.start;
        if avail < 8 {
            // Validate whatever prefix of the magic we do have, so 1-byte
            // garbage fails now instead of after 8 bytes dribble in.
            let have = &self.buf[self.start..];
            if !FRAME_MAGIC.starts_with(&have[..have.len().min(4)]) {
                self.poisoned = true;
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "bad frame magic",
                ));
            }
            return Ok(None);
        }
        let header = &self.buf[self.start..self.start + 8];
        if header[..4] != FRAME_MAGIC {
            self.poisoned = true;
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad frame magic",
            ));
        }
        let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len > self.max_len {
            self.poisoned = true;
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds cap {}", self.max_len),
            ));
        }
        let total = 8 + len as usize;
        if avail < total {
            return Ok(None);
        }
        let payload_start = self.start + 8;
        self.start += total;
        Ok(Some(&self.buf[payload_start..payload_start + len as usize]))
    }

    /// Bytes buffered but not yet consumed by a complete frame. Nonzero
    /// means a frame is in flight — the signal the server's slow-loris
    /// read deadline keys on.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether the stream has lost framing (a prior
    /// [`next_frame`](FrameDecoder::next_frame) error).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

// ---------------------------------------------------------------------
// Response codec.
//
// A fixed-layout little-endian encoding of `Response`, written/parsed
// with no reflection and no intermediate allocations on encode (the
// caller supplies the output buffer). Tag bytes pin the layout:
// changing them is a protocol version event, same as the request struct
// shapes above.

const CT_PONG: u8 = 0;
const CT_CAPABILITIES: u8 = 1;
const CT_DOCS: u8 = 2;
const CT_BLOB: u8 = 3;
const CT_ERR: u8 = 4;

const CE_UNAVAILABLE: u8 = 0;
const CE_TIMEOUT: u8 = 1;
const CE_NOT_FOUND: u8 = 2;
const CE_UNSUPPORTED: u8 = 3;
const CE_UNKNOWN_NS: u8 = 4;
const CE_BAD_REQUEST: u8 = 5;
const CE_VERSION_MISMATCH: u8 = 6;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes a response payload, appending to `out` (cleared first). Reusing one buffer across responses is the point:
/// the hot path allocates nothing.
pub fn encode_response_into(resp: &Response, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&resp.id.to_le_bytes());
    match resp.server_elapsed_us {
        None => out.push(0),
        Some(us) => {
            out.push(1);
            out.extend_from_slice(&us.to_le_bytes());
        }
    }
    match &resp.body {
        ResponseBody::Pong { version } => {
            out.push(CT_PONG);
            out.extend_from_slice(&version.to_le_bytes());
        }
        ResponseBody::Capabilities {
            version,
            namespaces,
        } => {
            out.push(CT_CAPABILITIES);
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&(namespaces.len() as u32).to_le_bytes());
            for ns in namespaces {
                put_str(out, ns);
            }
        }
        ResponseBody::Docs(docs) => {
            out.push(CT_DOCS);
            out.extend_from_slice(&(docs.len() as u32).to_le_bytes());
            for d in docs {
                put_str(out, &d.id);
                put_str(out, &d.title);
            }
        }
        ResponseBody::Blob(bytes) => {
            out.push(CT_BLOB);
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        ResponseBody::Err(err) => {
            out.push(CT_ERR);
            match err {
                WireError::Remote(RemoteError::Unavailable(m)) => {
                    out.push(CE_UNAVAILABLE);
                    put_str(out, m);
                }
                WireError::Remote(RemoteError::Timeout) => out.push(CE_TIMEOUT),
                WireError::Remote(RemoteError::NotFound(m)) => {
                    out.push(CE_NOT_FOUND);
                    put_str(out, m);
                }
                WireError::Remote(RemoteError::UnsupportedQuery(m)) => {
                    out.push(CE_UNSUPPORTED);
                    put_str(out, m);
                }
                WireError::UnknownNamespace(ns) => {
                    out.push(CE_UNKNOWN_NS);
                    put_str(out, ns);
                }
                WireError::BadRequest(m) => {
                    out.push(CE_BAD_REQUEST);
                    put_str(out, m);
                }
                WireError::VersionMismatch { server, client } => {
                    out.push(CE_VERSION_MISMATCH);
                    out.extend_from_slice(&server.to_le_bytes());
                    out.extend_from_slice(&client.to_le_bytes());
                }
            }
        }
    }
}

/// [`encode_response_into`] into a fresh buffer.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(resp, &mut out);
    out
}

struct ResponseReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ResponseReader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return Err(invalid("response"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| invalid("response"))
    }

    /// Reads a string into `out`, reusing its allocation when capacity
    /// suffices.
    fn str_into(&mut self, out: &mut String) -> io::Result<()> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        let s = std::str::from_utf8(b).map_err(|_| invalid("response"))?;
        out.clear();
        out.push_str(s);
        Ok(())
    }
}

/// Decodes a response payload.
///
/// # Errors
///
/// `InvalidData` when the bytes are not a valid response (truncated,
/// unknown tag, trailing garbage, or invalid UTF-8).
pub fn decode_response(bytes: &[u8]) -> io::Result<Response> {
    let mut pool = Vec::new();
    decode_response_reusing(bytes, &mut pool)
}

/// Like [`decode_response`], but a `Docs` body recycles `pool`:
/// existing `RemoteDoc` slots (and the strings inside them) are refilled
/// in place, and the refilled vec is moved into the returned response.
/// Feeding the vec from one response back in for the next means
/// steady-state decoding of similarly shaped doc lists allocates
/// nothing — the client-side twin of the server's reused encode buffer.
///
/// On any decode error the pool's contents are unspecified (but valid);
/// non-`Docs` bodies leave it untouched.
///
/// # Errors
///
/// `InvalidData` when the bytes are not a valid response (truncated,
/// unknown tag, trailing garbage, or invalid UTF-8).
pub fn decode_response_reusing(bytes: &[u8], pool: &mut Vec<RemoteDoc>) -> io::Result<Response> {
    let mut r = ResponseReader { bytes, pos: 0 };
    let id = r.u64()?;
    let server_elapsed_us = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        _ => return Err(invalid("response")),
    };
    let body = match r.u8()? {
        CT_PONG => ResponseBody::Pong { version: r.u16()? },
        CT_CAPABILITIES => {
            let version = r.u16()?;
            let n = r.u32()? as usize;
            let mut namespaces = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                namespaces.push(r.str()?);
            }
            ResponseBody::Capabilities {
                version,
                namespaces,
            }
        }
        CT_DOCS => {
            let n = r.u32()? as usize;
            pool.truncate(n);
            pool.reserve(n.min(4096).saturating_sub(pool.len()));
            for i in 0..n {
                if let Some(slot) = pool.get_mut(i) {
                    r.str_into(&mut slot.id)?;
                    r.str_into(&mut slot.title)?;
                } else {
                    let id = r.str()?;
                    let title = r.str()?;
                    pool.push(RemoteDoc { id, title });
                }
            }
            ResponseBody::Docs(std::mem::take(pool))
        }
        CT_BLOB => {
            let len = r.u32()? as usize;
            ResponseBody::Blob(r.take(len)?.to_vec())
        }
        CT_ERR => {
            let err = match r.u8()? {
                CE_UNAVAILABLE => WireError::Remote(RemoteError::Unavailable(r.str()?)),
                CE_TIMEOUT => WireError::Remote(RemoteError::Timeout),
                CE_NOT_FOUND => WireError::Remote(RemoteError::NotFound(r.str()?)),
                CE_UNSUPPORTED => WireError::Remote(RemoteError::UnsupportedQuery(r.str()?)),
                CE_UNKNOWN_NS => WireError::UnknownNamespace(r.str()?),
                CE_BAD_REQUEST => WireError::BadRequest(r.str()?),
                CE_VERSION_MISMATCH => WireError::VersionMismatch {
                    server: r.u16()?,
                    client: r.u16()?,
                },
                _ => return Err(invalid("response")),
            };
            ResponseBody::Err(err)
        }
        _ => return Err(invalid("response")),
    };
    if r.pos != bytes.len() {
        return Err(invalid("response"));
    }
    Ok(Response {
        id,
        body,
        server_elapsed_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let bytes = encode_request(&req);
        let back = decode_request(&bytes).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request {
            id: 1,
            trace: None,
            body: RequestBody::Ping {
                version: PROTOCOL_VERSION,
            },
        });
        roundtrip_req(Request {
            id: 2,
            trace: None,
            body: RequestBody::Capabilities,
        });
        roundtrip_req(Request {
            id: u64::MAX,
            trace: None,
            body: RequestBody::Search {
                ns: "web".into(),
                query: ContentExpr::and_not(
                    ContentExpr::term("fingerprint"),
                    ContentExpr::or(ContentExpr::All, ContentExpr::Phrase(vec!["a".into()])),
                ),
            },
        });
        roundtrip_req(Request {
            id: 3,
            trace: None,
            body: RequestBody::Fetch {
                ns: "lib".into(),
                doc: "/pub/a.txt".into(),
            },
        });
    }

    #[test]
    fn traced_messages_roundtrip_with_context_and_timing() {
        let req = Request {
            id: 4,
            body: RequestBody::Capabilities,
            trace: Some(TraceContext {
                trace_id: 0xdead_beef,
                span_id: 0x1234,
            }),
        };
        let back = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(back, req);

        let resp = Response {
            id: 4,
            body: ResponseBody::Pong { version: 2 },
            server_elapsed_us: Some(417),
        };
        let back = decode_response(&encode_response(&resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let payload = encode_request(&Request {
            id: 42,
            trace: None,
            body: RequestBody::Capabilities,
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let got = read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn bad_magic_and_oversize_are_refused() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf[0] = b'X';
        let err = read_frame(&mut io::Cursor::new(&buf), DEFAULT_MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        let err = read_frame(&mut io::Cursor::new(&buf), 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frames_are_eof_not_panic() {
        let payload = encode_response(&Response {
            id: 1,
            server_elapsed_us: None,
            body: ResponseBody::Blob(vec![7; 64]),
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        for cut in [1, 4, 8, 12, buf.len() - 1] {
            let err =
                read_frame(&mut io::Cursor::new(&buf[..cut]), DEFAULT_MAX_FRAME_LEN).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn garbled_request_decodes_to_error_not_panic() {
        let payload = encode_request(&Request {
            id: 5,
            trace: Some(TraceContext {
                trace_id: 1,
                span_id: 2,
            }),
            body: RequestBody::Fetch {
                ns: "a".into(),
                doc: "b".into(),
            },
        });
        for i in 0..payload.len() {
            let mut garbled = payload.clone();
            garbled[i] ^= 0xFF;
            // Any outcome is fine except a panic; most flips must fail.
            let _ = decode_request(&garbled);
        }
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(b"garbage").is_err());
    }

    #[test]
    fn streaming_decoder_assembles_frames_from_dribbled_bytes() {
        let payloads: Vec<Vec<u8>> = vec![
            encode_request(&Request::new(1, RequestBody::Capabilities)),
            encode_request(&Request::new(
                2,
                RequestBody::Fetch {
                    ns: "web".into(),
                    doc: "d".into(),
                },
            )),
            vec![],
        ];
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }
        // Feed one byte at a time; every completed frame must match.
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut got = Vec::new();
        for b in &stream {
            dec.push(std::slice::from_ref(b));
            while let Some(p) = dec.next_frame().unwrap() {
                got.push(p.to_vec());
            }
        }
        assert_eq!(got, payloads);
        assert_eq!(dec.pending_bytes(), 0);

        // Feed everything at once: the loop drains all pipelined frames.
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        dec.push(&stream);
        let mut got = Vec::new();
        while let Some(p) = dec.next_frame().unwrap() {
            got.push(p.to_vec());
        }
        assert_eq!(got, payloads);
    }

    #[test]
    fn streaming_decoder_rejects_bad_magic_and_oversize() {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        dec.push(b"X");
        assert!(dec.next_frame().is_err(), "1 garbage byte is enough");
        assert!(dec.is_poisoned());
        assert!(dec.next_frame().is_err(), "poison sticks");

        let mut dec = FrameDecoder::new(16);
        let mut stream = Vec::new();
        write_frame(&mut stream, &[0u8; 64]).unwrap();
        dec.push(&stream);
        assert!(dec.next_frame().is_err(), "oversize length prefix refused");
    }

    #[test]
    fn streaming_decoder_reports_pending_bytes_mid_frame() {
        let payload = encode_request(&Request::new(1, RequestBody::Capabilities));
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).unwrap();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        dec.push(&stream[..stream.len() - 1]);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(dec.pending_bytes() > 0, "mid-frame: slow-loris signal up");
        dec.push(&stream[stream.len() - 1..]);
        assert_eq!(dec.next_frame().unwrap().unwrap(), &payload[..]);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn responses_roundtrip_in_every_body_shape() {
        let bodies = vec![
            ResponseBody::Pong { version: 3 },
            ResponseBody::Capabilities {
                version: 3,
                namespaces: vec!["a".into(), "ø-unicode".into()],
            },
            ResponseBody::Docs(vec![
                RemoteDoc {
                    id: "u1".into(),
                    title: "Title".into(),
                },
                RemoteDoc {
                    id: String::new(),
                    title: String::new(),
                },
            ]),
            ResponseBody::Docs(vec![]),
            ResponseBody::Blob(vec![0, 255, 7]),
            ResponseBody::Blob(vec![]),
            ResponseBody::Err(WireError::Remote(RemoteError::Timeout)),
            ResponseBody::Err(WireError::Remote(RemoteError::Unavailable("x".into()))),
            ResponseBody::Err(WireError::Remote(RemoteError::NotFound("n".into()))),
            ResponseBody::Err(WireError::Remote(RemoteError::UnsupportedQuery("q".into()))),
            ResponseBody::Err(WireError::UnknownNamespace("zzz".into())),
            ResponseBody::Err(WireError::BadRequest("nope".into())),
            ResponseBody::Err(WireError::VersionMismatch {
                server: 3,
                client: 9,
            }),
        ];
        let mut buf = Vec::new();
        for body in bodies {
            for elapsed in [None, Some(417u64)] {
                let resp = Response {
                    id: u64::MAX,
                    body: body.clone(),
                    server_elapsed_us: elapsed,
                };
                encode_response_into(&resp, &mut buf);
                assert_eq!(decode_response(&buf).unwrap(), resp);
            }
        }
    }

    #[test]
    fn reusing_decode_recycles_allocations_and_matches_oneshot() {
        let docs: Vec<RemoteDoc> = (0..8)
            .map(|i| RemoteDoc {
                id: format!("doc{i}"),
                title: format!("Title {i}"),
            })
            .collect();
        let resp = Response::new(9, ResponseBody::Docs(docs));
        let buf = encode_response(&resp);

        // Pool longer than the response, with stale oversized strings: the
        // surviving slots must be refilled in place (same heap buffers).
        let mut pool: Vec<RemoteDoc> = (0..12)
            .map(|i| RemoteDoc {
                id: format!("stale-id-{i}-padding-padding"),
                title: format!("stale-title-{i}-padding-padding"),
            })
            .collect();
        let before: Vec<*const u8> = pool.iter().take(8).map(|d| d.id.as_ptr()).collect();
        let got = decode_response_reusing(&buf, &mut pool).unwrap();
        assert_eq!(got, resp);
        assert!(pool.is_empty(), "pool vec moves into the response");
        let ResponseBody::Docs(out) = &got.body else {
            panic!("docs body expected")
        };
        let after: Vec<*const u8> = out.iter().map(|d| d.id.as_ptr()).collect();
        assert_eq!(before, after, "string allocations must be reused");

        // Pool shorter than the response grows to fit.
        let mut small = vec![RemoteDoc {
            id: "x".into(),
            title: "y".into(),
        }];
        assert_eq!(decode_response_reusing(&buf, &mut small).unwrap(), resp);

        // Non-docs bodies leave the pool alone.
        let pong = encode_response(&Response::new(
            1,
            ResponseBody::Pong {
                version: PROTOCOL_VERSION,
            },
        ));
        let mut untouched = vec![RemoteDoc {
            id: "keep".into(),
            title: "me".into(),
        }];
        decode_response_reusing(&pong, &mut untouched).unwrap();
        assert_eq!(untouched.len(), 1);
        assert_eq!(untouched[0].id, "keep");
    }

    #[test]
    fn response_codec_rejects_garbage() {
        assert!(decode_response(&[]).is_err());
        let good = encode_response(&Response::new(
            7,
            ResponseBody::Docs(vec![RemoteDoc {
                id: "a".into(),
                title: "b".into(),
            }]),
        ));
        for cut in 0..good.len() {
            assert!(
                decode_response(&good[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(
            decode_response(&trailing).is_err(),
            "trailing garbage must fail"
        );
        for i in 0..good.len() {
            let mut garbled = good.clone();
            garbled[i] ^= 0xFF;
            // Any outcome but a panic is fine.
            let _ = decode_response(&garbled);
        }
    }

    #[test]
    fn wire_error_taxonomy_maps_onto_remote_error() {
        assert_eq!(
            WireError::Remote(RemoteError::Timeout).into_remote_error(),
            RemoteError::Timeout
        );
        assert!(matches!(
            WireError::UnknownNamespace("x".into()).into_remote_error(),
            RemoteError::Unavailable(_)
        ));
        assert!(matches!(
            WireError::VersionMismatch {
                server: 1,
                client: 9
            }
            .into_remote_error(),
            RemoteError::Unavailable(_)
        ));
        assert!(matches!(
            WireError::BadRequest("m".into()).into_remote_error(),
            RemoteError::UnsupportedQuery(_)
        ));
        assert!(WireError::Remote(RemoteError::Timeout).is_retriable());
        assert!(WireError::Remote(RemoteError::Unavailable("x".into())).is_retriable());
        assert!(!WireError::Remote(RemoteError::NotFound("x".into())).is_retriable());
        assert!(!WireError::BadRequest("m".into()).is_retriable());
    }
}
