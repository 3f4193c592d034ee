//! The `hpnn-serve` wire protocol.
//!
//! Every message is one length-prefixed frame ([`hpnn_bytes::Frame`]: a
//! little-endian `u32` payload length, then a version byte, an opcode byte,
//! a little-endian `u32` correlation ID, and an opcode-specific body). All
//! multi-byte integers are little-endian and inference inputs/outputs
//! travel as raw `f32` bits, so a logit row is bit-identical on both ends
//! of the wire.
//!
//! The server speaks exactly one version, [`PROTOCOL_VERSION`] (2), which
//! is pipelined: every request carries a `u32` correlation ID chosen by the
//! client; replies echo it and may arrive out of order. `HELLO_OK` still
//! carries the version field. A frame with any other version byte gets a
//! typed `ERROR BAD_VERSION` reply framed at [`PROTOCOL_VERSION`], and the
//! connection stays open.
//!
//! Requests: `HELLO`, `INFER` (one sample), `INFER_BATCH` (client-side
//! batch), `STATS`, `SHUTDOWN`, and `FWD_ACT` (an intermediate
//! activation forwarded node-to-node in a layer-partitioned cluster — see
//! [`Request::Forward`]). Replies: `HELLO_OK`, `LOGITS`, `STATS_OK`,
//! `SHUTDOWN_OK`, `BUSY` (backpressure), and `ERROR` (with a machine
//! [`ErrorCode`], the offending request opcode, plus a human message). A
//! malformed payload gets an `ERROR` reply and the connection stays open;
//! only a lying length prefix (payload larger than [`MAX_FRAME_PAYLOAD`])
//! closes the connection, because a byte stream cannot be resynchronized
//! past it.

use std::fmt;

use hpnn_bytes::{put_frame, Buf, BufMut, BytesMut, Frame};

use crate::metrics::{
    HistogramSnapshot, ShardStatsSnapshot, StatsSnapshot, HISTOGRAM_BUCKETS, SCALAR_STATS,
};

/// The one protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 2;

/// Hard cap on a frame payload; anything larger is a protocol violation.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 24;

pub(crate) const OP_HELLO: u8 = 0x01;
pub(crate) const OP_INFER: u8 = 0x02;
pub(crate) const OP_INFER_BATCH: u8 = 0x03;
pub(crate) const OP_STATS: u8 = 0x04;
pub(crate) const OP_SHUTDOWN: u8 = 0x05;
pub(crate) const OP_FWD_ACT: u8 = 0x06;

pub(crate) const OP_HELLO_OK: u8 = 0x81;
pub(crate) const OP_LOGITS: u8 = 0x82;
pub(crate) const OP_STATS_OK: u8 = 0x83;
pub(crate) const OP_SHUTDOWN_OK: u8 = 0x84;
pub(crate) const OP_BUSY: u8 = 0x90;
pub(crate) const OP_ERROR: u8 = 0xEE;

/// Which deployment of a locked model a request runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferMode {
    /// Trusted-device path: lock factors derived from the vaulted key.
    Keyed,
    /// Adversary path: stolen weights with no key (accuracy collapses).
    Keyless,
}

impl InferMode {
    fn to_u8(self) -> u8 {
        match self {
            InferMode::Keyed => 0,
            InferMode::Keyless => 1,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(InferMode::Keyed),
            1 => Ok(InferMode::Keyless),
            tag => Err(WireError::BadTag {
                context: "infer mode",
                tag,
            }),
        }
    }
}

impl fmt::Display for InferMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferMode::Keyed => write!(f, "keyed"),
            InferMode::Keyless => write!(f, "keyless"),
        }
    }
}

/// Machine-readable error category carried by `ERROR` replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ErrorCode {
    /// Frame payload did not decode as a request.
    Malformed,
    /// Request version byte is outside the supported range.
    BadVersion,
    /// Unknown opcode byte.
    BadOpcode,
    /// Model id not present in the registry.
    UnknownModel,
    /// Input width differs from the model's `in_features`.
    BadWidth,
    /// Keyed mode requested but the server holds no vault for the model.
    KeyUnavailable,
    /// Request exceeded its deadline while queued.
    DeadlineExceeded,
    /// Server is draining and accepts no new inference work.
    ShuttingDown,
    /// A client batch exceeded the per-request row cap.
    TooManyRows,
    /// Internal failure (e.g. a worker died under the request).
    Internal,
    /// A v2 request reused a correlation ID that is still in flight on
    /// the same connection.
    DuplicateCorrelation,
    /// A cluster peer holding part of the request's layer pipeline was
    /// unreachable (or dropped mid-request) and no local fallback existed.
    PeerUnavailable,
    /// A `FWD_ACT` asked this node to run a trusted-required (locked)
    /// stage, but the node holds no `KeyVault` — locked layers never
    /// execute outside the trusted boundary.
    TrustedStageRefused,
}

impl ErrorCode {
    /// The wire byte for this code.
    pub fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::BadVersion => 2,
            ErrorCode::BadOpcode => 3,
            ErrorCode::UnknownModel => 4,
            ErrorCode::BadWidth => 5,
            ErrorCode::KeyUnavailable => 6,
            ErrorCode::DeadlineExceeded => 7,
            ErrorCode::ShuttingDown => 8,
            ErrorCode::TooManyRows => 9,
            ErrorCode::Internal => 10,
            ErrorCode::DuplicateCorrelation => 11,
            ErrorCode::PeerUnavailable => 12,
            ErrorCode::TrustedStageRefused => 13,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::BadVersion,
            3 => ErrorCode::BadOpcode,
            4 => ErrorCode::UnknownModel,
            5 => ErrorCode::BadWidth,
            6 => ErrorCode::KeyUnavailable,
            7 => ErrorCode::DeadlineExceeded,
            8 => ErrorCode::ShuttingDown,
            9 => ErrorCode::TooManyRows,
            10 => ErrorCode::Internal,
            11 => ErrorCode::DuplicateCorrelation,
            12 => ErrorCode::PeerUnavailable,
            13 => ErrorCode::TrustedStageRefused,
            tag => {
                return Err(WireError::BadTag {
                    context: "error code",
                    tag,
                })
            }
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Malformed => "malformed request",
            ErrorCode::BadVersion => "unsupported protocol version",
            ErrorCode::BadOpcode => "unknown opcode",
            ErrorCode::UnknownModel => "unknown model id",
            ErrorCode::BadWidth => "input width mismatch",
            ErrorCode::KeyUnavailable => "no key provisioned for model",
            ErrorCode::DeadlineExceeded => "deadline exceeded",
            ErrorCode::ShuttingDown => "server shutting down",
            ErrorCode::TooManyRows => "too many rows in one request",
            ErrorCode::Internal => "internal server error",
            ErrorCode::DuplicateCorrelation => "correlation id already in flight",
            ErrorCode::PeerUnavailable => "cluster peer unavailable",
            ErrorCode::TrustedStageRefused => "trusted stage refused on keyless node",
        };
        f.write_str(s)
    }
}

/// Error decoding a frame payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Payload ended before a field was complete.
    Truncated {
        /// What was being decoded.
        context: &'static str,
    },
    /// Version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// Opcode byte is not a known request/reply.
    BadOpcode(u8),
    /// An enum tag byte was invalid.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Trailing bytes followed a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { context } => write!(f, "payload truncated in {context}"),
            WireError::BadVersion(v) => write!(f, "protocol version {v} unsupported"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadTag { context, tag } => write!(f, "invalid tag {tag} in {context}"),
            WireError::BadUtf8 => write!(f, "string field is not valid utf-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// The `ERROR`-reply code a server should attach for this decode error.
    pub fn error_code(&self) -> ErrorCode {
        match self {
            WireError::BadVersion(_) => ErrorCode::BadVersion,
            WireError::BadOpcode(_) => ErrorCode::BadOpcode,
            _ => ErrorCode::Malformed,
        }
    }
}

/// One registry entry as advertised by `HELLO_OK`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Wire id used by `INFER`/`INFER_BATCH`.
    pub id: u16,
    /// Human-readable model name.
    pub name: String,
    /// Input features per sample.
    pub in_features: usize,
    /// Logits per sample.
    pub out_features: usize,
    /// `true` if the server can run keyed (trusted-device) inference.
    pub has_key: bool,
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake; the server answers with its model list.
    Hello {
        /// Free-form client identifier (logged, never parsed).
        client: String,
    },
    /// Run `rows` samples through a model. Encoded as `INFER` when
    /// `rows == 1` and `INFER_BATCH` otherwise.
    Infer {
        /// Registry id of the target model.
        model: u16,
        /// Keyed (trusted) or keyless (adversary) deployment.
        mode: InferMode,
        /// Per-request deadline in microseconds from enqueue; 0 = none.
        deadline_us: u32,
        /// Samples in this request.
        rows: usize,
        /// Features per sample; must equal the model's `in_features`.
        cols: usize,
        /// Row-major input values, `rows * cols` long.
        data: Vec<f32>,
    },
    /// `FWD_ACT`: an intermediate activation forwarded from a
    /// cluster head to the peer hosting `stage` of a layer-partitioned
    /// model. The body is the activation entering that stage; the reply is
    /// a `LOGITS` frame carrying the activation leaving it, matched back
    /// by correlation ID exactly like any pipelined request.
    Forward {
        /// Registry id of the target model.
        model: u16,
        /// Stage index into the partition both nodes built from the same
        /// cut list.
        stage: u16,
        /// Keyed (trusted) or keyless (adversary) deployment.
        mode: InferMode,
        /// Per-request deadline in microseconds from enqueue; 0 = none.
        deadline_us: u32,
        /// Samples in this activation batch.
        rows: usize,
        /// Features per sample; must equal the stage's `in_features`.
        cols: usize,
        /// Row-major activation values, `rows * cols` long.
        data: Vec<f32>,
    },
    /// Fetch the server's counters and latency histograms.
    Stats,
    /// Drain queued work, stop accepting requests, and exit.
    Shutdown,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Handshake answer.
    HelloOk {
        /// The server's protocol version (always [`PROTOCOL_VERSION`]).
        version: u8,
        /// Models available on this server, in id order.
        models: Vec<ModelInfo>,
    },
    /// Logits for one `Infer` request.
    Logits {
        /// Samples answered.
        rows: usize,
        /// Logits per sample.
        cols: usize,
        /// Row-major logits, bit-exact as computed.
        data: Vec<f32>,
    },
    /// Backpressure: the model's queue (or this connection's in-flight
    /// window) is full, retry later.
    Busy,
    /// Counters and histograms snapshot (boxed: the six histograms make
    /// the snapshot by far the largest variant).
    StatsOk(Box<StatsSnapshot>),
    /// All in-flight work drained; the server is gone after this.
    ShutdownOk,
    /// The request failed; the connection remains usable.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Opcode of the request that failed (0 when unknown, e.g. a
        /// payload too short to carry one).
        request_opcode: u8,
        /// Human-readable detail.
        message: String,
    },
}

fn need(buf: &impl Buf, n: usize, context: &'static str) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated { context })
    } else {
        Ok(())
    }
}

fn put_str32(buf: &mut BytesMut, s: &str) {
    put_frame(buf, s.as_bytes());
}

fn get_str32(buf: &mut impl Buf, context: &'static str) -> Result<String, WireError> {
    let max = buf.remaining().saturating_sub(4);
    match hpnn_bytes::try_get_frame(buf, max) {
        Ok(Some(bytes)) => String::from_utf8(bytes).map_err(|_| WireError::BadUtf8),
        _ => Err(WireError::Truncated { context }),
    }
}

fn get_f32s(buf: &mut impl Buf, n: usize, context: &'static str) -> Result<Vec<f32>, WireError> {
    need(buf, n.saturating_mul(4), context)?;
    Ok((0..n).map(|_| buf.get_f32_le()).collect())
}

fn put_f32s(buf: &mut BytesMut, data: &[f32]) {
    for &v in data {
        buf.put_f32_le(v);
    }
}

/// Splits a frame payload into `(version, opcode, correlation, body)`,
/// rejecting every version but [`PROTOCOL_VERSION`].
///
/// # Errors
///
/// [`WireError::Truncated`] when the header is incomplete for its version,
/// [`WireError::BadVersion`] for any other version byte.
pub fn split_frame(payload: &[u8]) -> Result<(u8, u8, u32, Vec<u8>), WireError> {
    let frame = Frame::parse(payload).map_err(|_| WireError::Truncated { context: "header" })?;
    if frame.version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(frame.version));
    }
    Ok((
        frame.version,
        frame.opcode,
        frame.correlation,
        frame.payload,
    ))
}

fn finish<T>(buf: &impl Buf, msg: T) -> Result<T, WireError> {
    if buf.remaining() != 0 {
        return Err(WireError::TrailingBytes(buf.remaining()));
    }
    Ok(msg)
}

fn write_message(out: &mut BytesMut, version: u8, opcode: u8, correlation: u32, body: BytesMut) {
    Frame {
        version,
        opcode,
        correlation,
        payload: body.to_vec(),
    }
    .write(out);
}

impl Request {
    fn opcode(&self) -> u8 {
        match self {
            Request::Hello { .. } => OP_HELLO,
            Request::Infer { rows: 1, .. } => OP_INFER,
            Request::Infer { .. } => OP_INFER_BATCH,
            Request::Forward { .. } => OP_FWD_ACT,
            Request::Stats => OP_STATS,
            Request::Shutdown => OP_SHUTDOWN,
        }
    }

    /// Encodes the request as one framed wire message (length prefix
    /// included), appended to `out`. `version` is the frame's version
    /// byte: [`PROTOCOL_VERSION`] for anything a server should accept.
    pub fn encode(&self, out: &mut BytesMut, version: u8, correlation: u32) {
        let mut p = BytesMut::new();
        match self {
            Request::Hello { client } => {
                put_str32(&mut p, client);
            }
            Request::Infer {
                model,
                mode,
                deadline_us,
                rows,
                cols,
                data,
            } => {
                debug_assert_eq!(rows * cols, data.len(), "row-major payload");
                p.put_u16_le(*model);
                p.put_u8(mode.to_u8());
                p.put_slice(&deadline_us.to_le_bytes());
                if *rows != 1 {
                    p.put_slice(&(*rows as u32).to_le_bytes());
                }
                p.put_slice(&(*cols as u32).to_le_bytes());
                put_f32s(&mut p, data);
            }
            Request::Forward {
                model,
                stage,
                mode,
                deadline_us,
                rows,
                cols,
                data,
            } => {
                debug_assert_eq!(rows * cols, data.len(), "row-major payload");
                p.put_u16_le(*model);
                p.put_u16_le(*stage);
                p.put_u8(mode.to_u8());
                p.put_slice(&deadline_us.to_le_bytes());
                p.put_slice(&(*rows as u32).to_le_bytes());
                p.put_slice(&(*cols as u32).to_le_bytes());
                put_f32s(&mut p, data);
            }
            Request::Stats | Request::Shutdown => {}
        }
        write_message(out, version, self.opcode(), correlation, p);
    }

    /// Decodes a request body for `opcode` (everything after the frame
    /// header as produced by [`split_frame`]).
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for anything that does not decode as exactly
    /// one request body.
    pub fn decode_body(opcode: u8, body: &[u8]) -> Result<Request, WireError> {
        let mut buf = body;
        let buf = &mut buf;
        match opcode {
            OP_HELLO => {
                let client = get_str32(buf, "hello client")?;
                finish(buf, Request::Hello { client })
            }
            OP_INFER | OP_INFER_BATCH => {
                need(buf, 7, "infer header")?;
                let model = buf.get_u16_le();
                let mode = InferMode::from_u8(buf.get_u8())?;
                let mut u32b = [0u8; 4];
                buf.copy_to_slice(&mut u32b);
                let deadline_us = u32::from_le_bytes(u32b);
                let rows = if opcode == OP_INFER_BATCH {
                    need(buf, 4, "infer rows")?;
                    buf.copy_to_slice(&mut u32b);
                    u32::from_le_bytes(u32b) as usize
                } else {
                    1
                };
                need(buf, 4, "infer cols")?;
                buf.copy_to_slice(&mut u32b);
                let cols = u32::from_le_bytes(u32b) as usize;
                let data = get_f32s(buf, rows.saturating_mul(cols), "infer data")?;
                finish(
                    buf,
                    Request::Infer {
                        model,
                        mode,
                        deadline_us,
                        rows,
                        cols,
                        data,
                    },
                )
            }
            OP_FWD_ACT => {
                need(buf, 17, "fwd_act header")?;
                let model = buf.get_u16_le();
                let stage = buf.get_u16_le();
                let mode = InferMode::from_u8(buf.get_u8())?;
                let mut u32b = [0u8; 4];
                buf.copy_to_slice(&mut u32b);
                let deadline_us = u32::from_le_bytes(u32b);
                buf.copy_to_slice(&mut u32b);
                let rows = u32::from_le_bytes(u32b) as usize;
                buf.copy_to_slice(&mut u32b);
                let cols = u32::from_le_bytes(u32b) as usize;
                let data = get_f32s(buf, rows.saturating_mul(cols), "fwd_act data")?;
                finish(
                    buf,
                    Request::Forward {
                        model,
                        stage,
                        mode,
                        deadline_us,
                        rows,
                        cols,
                        data,
                    },
                )
            }
            OP_STATS => finish(buf, Request::Stats),
            OP_SHUTDOWN => finish(buf, Request::Shutdown),
            other => Err(WireError::BadOpcode(other)),
        }
    }

    /// Decodes a whole frame payload into `(version, correlation, request)`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for anything that does not decode as exactly
    /// one request message.
    pub fn decode(payload: &[u8]) -> Result<(u8, u32, Request), WireError> {
        let (version, opcode, correlation, body) = split_frame(payload)?;
        Ok((version, correlation, Request::decode_body(opcode, &body)?))
    }
}

impl Reply {
    fn opcode(&self) -> u8 {
        match self {
            Reply::HelloOk { .. } => OP_HELLO_OK,
            Reply::Logits { .. } => OP_LOGITS,
            Reply::Busy => OP_BUSY,
            Reply::StatsOk(_) => OP_STATS_OK,
            Reply::ShutdownOk => OP_SHUTDOWN_OK,
            Reply::Error { .. } => OP_ERROR,
        }
    }

    /// Encodes the reply as one framed wire message appended to `out`,
    /// echoing `correlation`; `version` is the frame's version byte.
    pub fn encode(&self, out: &mut BytesMut, version: u8, correlation: u32) {
        let mut p = BytesMut::new();
        match self {
            Reply::HelloOk {
                version: negotiated,
                models,
            } => {
                p.put_u8(*negotiated);
                p.put_u16_le(models.len() as u16);
                for m in models {
                    p.put_u16_le(m.id);
                    put_str32(&mut p, &m.name);
                    p.put_slice(&(m.in_features as u32).to_le_bytes());
                    p.put_slice(&(m.out_features as u32).to_le_bytes());
                    p.put_u8(m.has_key as u8);
                }
            }
            Reply::Logits { rows, cols, data } => {
                debug_assert_eq!(rows * cols, data.len(), "row-major logits");
                p.put_slice(&(*rows as u32).to_le_bytes());
                p.put_slice(&(*cols as u32).to_le_bytes());
                put_f32s(&mut p, data);
            }
            Reply::Busy | Reply::ShutdownOk => {}
            Reply::StatsOk(snapshot) => {
                put_stats(&mut p, snapshot);
            }
            Reply::Error {
                code,
                request_opcode,
                message,
            } => {
                p.put_u8(code.to_u8());
                p.put_u8(*request_opcode);
                put_str32(&mut p, message);
            }
        }
        write_message(out, version, self.opcode(), correlation, p);
    }

    /// Decodes a reply body for `opcode` (everything after the frame
    /// header as produced by [`split_frame`]).
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for anything that does not decode as exactly
    /// one reply body.
    pub fn decode_body(opcode: u8, body: &[u8]) -> Result<Reply, WireError> {
        let mut buf = body;
        let buf = &mut buf;
        match opcode {
            OP_HELLO_OK => {
                need(buf, 3, "hello_ok header")?;
                let version = buf.get_u8();
                let n = buf.get_u16_le() as usize;
                let mut models = Vec::with_capacity(n);
                for _ in 0..n {
                    need(buf, 2, "model id")?;
                    let id = buf.get_u16_le();
                    let name = get_str32(buf, "model name")?;
                    need(buf, 9, "model dims")?;
                    let mut u32b = [0u8; 4];
                    buf.copy_to_slice(&mut u32b);
                    let in_features = u32::from_le_bytes(u32b) as usize;
                    buf.copy_to_slice(&mut u32b);
                    let out_features = u32::from_le_bytes(u32b) as usize;
                    let has_key = buf.get_u8() != 0;
                    models.push(ModelInfo {
                        id,
                        name,
                        in_features,
                        out_features,
                        has_key,
                    });
                }
                finish(buf, Reply::HelloOk { version, models })
            }
            OP_LOGITS => {
                need(buf, 8, "logits dims")?;
                let mut u32b = [0u8; 4];
                buf.copy_to_slice(&mut u32b);
                let rows = u32::from_le_bytes(u32b) as usize;
                buf.copy_to_slice(&mut u32b);
                let cols = u32::from_le_bytes(u32b) as usize;
                let data = get_f32s(buf, rows.saturating_mul(cols), "logits data")?;
                finish(buf, Reply::Logits { rows, cols, data })
            }
            OP_BUSY => finish(buf, Reply::Busy),
            OP_STATS_OK => {
                let snapshot = get_stats(buf)?;
                finish(buf, Reply::StatsOk(Box::new(snapshot)))
            }
            OP_SHUTDOWN_OK => finish(buf, Reply::ShutdownOk),
            OP_ERROR => {
                need(buf, 2, "error header")?;
                let code = ErrorCode::from_u8(buf.get_u8())?;
                let request_opcode = buf.get_u8();
                let message = get_str32(buf, "error message")?;
                finish(
                    buf,
                    Reply::Error {
                        code,
                        request_opcode,
                        message,
                    },
                )
            }
            other => Err(WireError::BadOpcode(other)),
        }
    }

    /// Decodes a whole frame payload into `(version, correlation, reply)`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for anything that does not decode as exactly
    /// one reply message.
    pub fn decode(payload: &[u8]) -> Result<(u8, u32, Reply), WireError> {
        let (version, opcode, correlation, body) = split_frame(payload)?;
        Ok((version, correlation, Reply::decode_body(opcode, &body)?))
    }
}

fn put_histogram(buf: &mut BytesMut, h: &HistogramSnapshot) {
    buf.put_u8(HISTOGRAM_BUCKETS as u8);
    for &b in &h.buckets {
        buf.put_u64_le(b);
    }
    buf.put_u64_le(h.count);
    buf.put_u64_le(h.sum_ns);
}

fn get_histogram(buf: &mut impl Buf) -> Result<HistogramSnapshot, WireError> {
    need(buf, 1, "histogram bucket count")?;
    let n = buf.get_u8() as usize;
    need(buf, (n + 2).saturating_mul(8), "histogram body")?;
    if n != HISTOGRAM_BUCKETS {
        return Err(WireError::BadTag {
            context: "histogram bucket count",
            tag: n as u8,
        });
    }
    let buckets = (0..n).map(|_| buf.get_u64_le()).collect();
    let count = buf.get_u64_le();
    let sum_ns = buf.get_u64_le();
    Ok(HistogramSnapshot {
        buckets,
        count,
        sum_ns,
    })
}

/// Counters on the `STATS_OK` wire: every schema scalar, then `uptime_ns`
/// and `snapshot_seq`.
const WIRE_COUNTERS: usize = SCALAR_STATS.len() + 2;

fn put_stats(buf: &mut BytesMut, s: &StatsSnapshot) {
    buf.put_u8(WIRE_COUNTERS as u8);
    for c in s.scalars().into_iter().chain([s.uptime_ns, s.snapshot_seq]) {
        buf.put_u64_le(c);
    }
    for h in s.histograms() {
        put_histogram(buf, h);
    }
    buf.put_u16_le(s.shards.len() as u16);
    for sh in &s.shards {
        buf.put_u16_le(sh.model);
        buf.put_u16_le(sh.shard);
        buf.put_u8(u8::from(sh.active));
        put_histogram(buf, &sh.forward);
        put_histogram(buf, &sh.queue_wait);
    }
}

fn get_stats(buf: &mut impl Buf) -> Result<StatsSnapshot, WireError> {
    need(buf, 1, "counter count")?;
    let n = buf.get_u8() as usize;
    need(buf, n.saturating_mul(8), "counters")?;
    if n != WIRE_COUNTERS {
        return Err(WireError::BadTag {
            context: "counter count",
            tag: n as u8,
        });
    }
    let mut s = StatsSnapshot::default();
    for c in s.scalars_mut() {
        *c = buf.get_u64_le();
    }
    s.uptime_ns = buf.get_u64_le();
    s.snapshot_seq = buf.get_u64_le();
    for h in s.histograms_mut() {
        *h = get_histogram(buf)?;
    }
    need(buf, 2, "shard count")?;
    let shard_count = buf.get_u16_le() as usize;
    s.shards.reserve(shard_count.min(256));
    for _ in 0..shard_count {
        need(buf, 5, "shard header")?;
        let model = buf.get_u16_le();
        let shard = buf.get_u16_le();
        let active = buf.get_u8() != 0;
        let forward = get_histogram(buf)?;
        let queue_wait = get_histogram(buf)?;
        s.shards.push(ShardStatsSnapshot {
            model,
            shard,
            active,
            forward,
            queue_wait,
        });
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_bytes::try_get_frame;

    /// Encodes at [`PROTOCOL_VERSION`] and strips the length prefix.
    fn frame_payload(encode: impl FnOnce(&mut BytesMut)) -> Vec<u8> {
        let mut out = BytesMut::new();
        encode(&mut out);
        let mut view = out.freeze();
        let payload = try_get_frame(&mut view, MAX_FRAME_PAYLOAD)
            .unwrap()
            .expect("complete frame");
        assert_eq!(view.remaining(), 0);
        payload
    }

    fn roundtrip_request(req: Request) {
        let payload = frame_payload(|out| req.encode(out, PROTOCOL_VERSION, 0xDEAD_0001));
        let (got_version, got_corr, got) = Request::decode(&payload).unwrap();
        assert_eq!(got_version, PROTOCOL_VERSION);
        assert_eq!(got_corr, 0xDEAD_0001);
        assert_eq!(got, req);
    }

    fn roundtrip_reply(rep: Reply) {
        let payload = frame_payload(|out| rep.encode(out, PROTOCOL_VERSION, 7));
        let (got_version, got_corr, got) = Reply::decode(&payload).unwrap();
        assert_eq!(got_version, PROTOCOL_VERSION);
        assert_eq!(got_corr, 7);
        assert_eq!(got, rep);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Hello {
            client: "bench-client".into(),
        });
        roundtrip_request(Request::Infer {
            model: 3,
            mode: InferMode::Keyed,
            deadline_us: 500,
            rows: 1,
            cols: 4,
            data: vec![1.0, -2.5, 0.0, f32::MIN_POSITIVE],
        });
        roundtrip_request(Request::Infer {
            model: 0,
            mode: InferMode::Keyless,
            deadline_us: 0,
            rows: 3,
            cols: 2,
            data: vec![0.5; 6],
        });
        roundtrip_request(Request::Forward {
            model: 1,
            stage: 2,
            mode: InferMode::Keyed,
            deadline_us: 250,
            rows: 2,
            cols: 3,
            data: vec![1.5, -0.5, 0.0, 2.0, -2.0, 4.25],
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn reply_roundtrips() {
        roundtrip_reply(Reply::HelloOk {
            version: PROTOCOL_VERSION,
            models: vec![ModelInfo {
                id: 0,
                name: "cnn1".into(),
                in_features: 784,
                out_features: 10,
                has_key: true,
            }],
        });
        roundtrip_reply(Reply::Logits {
            rows: 2,
            cols: 3,
            data: vec![0.25, -1.0, 3.5, 0.0, -0.0, 9.75],
        });
        roundtrip_reply(Reply::Busy);
        roundtrip_reply(Reply::ShutdownOk);
        roundtrip_reply(Reply::Error {
            code: ErrorCode::BadWidth,
            request_opcode: OP_INFER,
            message: "expected 784 features".into(),
        });
    }

    #[test]
    fn stats_reply_roundtrips() {
        let h = |seed: u64| HistogramSnapshot {
            buckets: (0..HISTOGRAM_BUCKETS as u64).map(|i| i * seed).collect(),
            count: 42 * seed,
            sum_ns: 1_000_000 * seed,
        };
        roundtrip_reply(Reply::StatsOk(Box::new(StatsSnapshot {
            connections: 1,
            requests: 2,
            rows: 3,
            replies_ok: 4,
            busy: 5,
            expired: 6,
            protocol_errors: 7,
            batches: 8,
            inflight: 9,
            accept_errors: 10,
            wakeups: 11,
            loop_events: 12,
            open_connections: 13,
            fwd_sent: 14,
            fwd_recv: 15,
            shard_scale_ups: 16,
            shard_scale_downs: 17,
            worker_panics: 18,
            keyed_requests: 19,
            keyless_requests: 20,
            trusted_stage_refused: 21,
            uptime_ns: 22,
            snapshot_seq: 23,
            e2e: h(1),
            forward: h(3),
            depth: h(5),
            queue_wait: h(7),
            batch_fill: h(9),
            writeback: h(11),
            remote_wait: h(13),
            shards: vec![
                ShardStatsSnapshot {
                    model: 0,
                    shard: 0,
                    active: true,
                    forward: h(15),
                    queue_wait: h(17),
                },
                ShardStatsSnapshot {
                    model: 0,
                    shard: 1,
                    active: false,
                    forward: h(19),
                    queue_wait: h(21),
                },
            ],
        })));
    }

    /// Pins the `STATS_OK` byte layout: every counter, histogram field and
    /// shard field carries a distinct value, so swapping any two fields on
    /// the wire changes the digest (a round-trip test cannot see that).
    #[test]
    fn stats_reply_bytes_are_pinned() {
        let h = |seed: u64| HistogramSnapshot {
            buckets: (0..HISTOGRAM_BUCKETS as u64)
                .map(|i| seed * 100 + i)
                .collect(),
            count: seed * 100 + 50,
            sum_ns: seed * 100 + 60,
        };
        let snapshot = StatsSnapshot {
            connections: 1,
            requests: 2,
            rows: 3,
            replies_ok: 4,
            busy: 5,
            expired: 6,
            protocol_errors: 7,
            batches: 8,
            inflight: 9,
            accept_errors: 10,
            wakeups: 11,
            loop_events: 12,
            open_connections: 13,
            fwd_sent: 14,
            fwd_recv: 15,
            shard_scale_ups: 16,
            shard_scale_downs: 17,
            worker_panics: 18,
            keyed_requests: 19,
            keyless_requests: 20,
            trusted_stage_refused: 21,
            uptime_ns: 22,
            snapshot_seq: 23,
            e2e: h(1),
            forward: h(2),
            depth: h(3),
            queue_wait: h(4),
            batch_fill: h(5),
            writeback: h(6),
            remote_wait: h(7),
            shards: vec![
                ShardStatsSnapshot {
                    model: 24,
                    shard: 25,
                    active: true,
                    forward: h(8),
                    queue_wait: h(9),
                },
                ShardStatsSnapshot {
                    model: 26,
                    shard: 27,
                    active: false,
                    forward: h(10),
                    queue_wait: h(11),
                },
            ],
        };
        let mut out = BytesMut::new();
        Reply::StatsOk(Box::new(snapshot)).encode(&mut out, PROTOCOL_VERSION, 7);
        // Frame header, then the counter block: count byte, connections = 1.
        assert_eq!(
            &out[4..11],
            &[PROTOCOL_VERSION, OP_STATS_OK, 7, 0, 0, 0, 23]
        );
        assert_eq!(&out[11..19], &1u64.to_le_bytes());
        assert_eq!(
            out.len(),
            4 + 6 + 1 + 23 * 8 + 2 + 11 * (1 + 26 * 8) + 2 * 5
        );
        assert_eq!(
            hpnn_core::sha256(&out).to_string(),
            "5a3abc9dea5fb4a81110bed0f40ce15a597f73f01105841ecdc07ca2ce2575c6"
        );
    }

    #[test]
    fn single_row_uses_compact_opcode() {
        let mut out = BytesMut::new();
        Request::Infer {
            model: 0,
            mode: InferMode::Keyed,
            deadline_us: 0,
            rows: 1,
            cols: 2,
            data: vec![1.0, 2.0],
        }
        .encode(&mut out, PROTOCOL_VERSION, 0);
        // frame: 4-byte length, version, opcode.
        assert_eq!(out[5], OP_INFER);
    }

    #[test]
    fn frames_carry_the_correlation_id() {
        let mut out = BytesMut::new();
        Request::Stats.encode(&mut out, PROTOCOL_VERSION, 0x0403_0201);
        // frame: len(2+4), version, opcode, correlation LE.
        assert_eq!(&out[..], &[6, 0, 0, 0, 2, OP_STATS, 1, 2, 3, 4]);
    }

    #[test]
    fn bad_version_rejected() {
        // Version 9 is ≥ 2, so its header carries a correlation field.
        let payload = [9u8, OP_STATS, 0, 0, 0, 0];
        assert_eq!(Request::decode(&payload), Err(WireError::BadVersion(9)));
        // Versions below 2 carry no correlation field (2-byte header).
        for v in [0u8, 1] {
            let payload = [v, OP_STATS];
            assert_eq!(Request::decode(&payload), Err(WireError::BadVersion(v)));
            assert_eq!(Reply::decode(&payload), Err(WireError::BadVersion(v)));
        }
    }

    #[test]
    fn bad_opcode_rejected() {
        let payload = [PROTOCOL_VERSION, 0x7F, 0, 0, 0, 0];
        assert_eq!(Request::decode(&payload), Err(WireError::BadOpcode(0x7F)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let payload = [PROTOCOL_VERSION, OP_STATS, 0, 0, 0, 0, 0xAA];
        assert_eq!(Request::decode(&payload), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let payload = frame_payload(|out| {
            Request::Infer {
                model: 1,
                mode: InferMode::Keyless,
                deadline_us: 77,
                rows: 2,
                cols: 3,
                data: vec![0.5; 6],
            }
            .encode(out, PROTOCOL_VERSION, 11)
        });
        for cut in 0..payload.len() {
            assert!(
                Request::decode(&payload[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::BadVersion,
            ErrorCode::BadOpcode,
            ErrorCode::UnknownModel,
            ErrorCode::BadWidth,
            ErrorCode::KeyUnavailable,
            ErrorCode::DeadlineExceeded,
            ErrorCode::ShuttingDown,
            ErrorCode::TooManyRows,
            ErrorCode::Internal,
            ErrorCode::DuplicateCorrelation,
            ErrorCode::PeerUnavailable,
            ErrorCode::TrustedStageRefused,
        ] {
            assert_eq!(ErrorCode::from_u8(code.to_u8()).unwrap(), code);
        }
        assert!(ErrorCode::from_u8(0).is_err());
        assert!(ErrorCode::from_u8(200).is_err());
    }

    #[test]
    fn fwd_act_truncation_rejected_everywhere() {
        let mut out = BytesMut::new();
        Request::Forward {
            model: 1,
            stage: 1,
            mode: InferMode::Keyed,
            deadline_us: 0,
            rows: 2,
            cols: 4,
            data: vec![0.25; 8],
        }
        .encode(&mut out, PROTOCOL_VERSION, 9);
        let full = out.freeze();
        let payload = full.slice(4..).to_vec(); // drop the frame length prefix
        for cut in 0..payload.len() {
            assert!(
                Request::decode(&payload[..cut]).is_err(),
                "fwd_act prefix {cut} decoded"
            );
        }
    }

    #[test]
    fn fwd_act_oversized_length_rejected() {
        // A FWD_ACT header whose rows*cols claims far more f32s than the
        // body carries must fail as truncated, not panic or over-read —
        // including the u32::MAX * u32::MAX overflow corner.
        for (rows, cols) in [(u32::MAX, u32::MAX), (1 << 20, 1 << 12), (2, 1 << 30)] {
            let mut p = BytesMut::new();
            p.put_u8(PROTOCOL_VERSION);
            p.put_u8(OP_FWD_ACT);
            p.put_slice(&7u32.to_le_bytes()); // correlation
            p.put_u16_le(0); // model
            p.put_u16_le(1); // stage
            p.put_u8(0); // mode
            p.put_slice(&0u32.to_le_bytes()); // deadline
            p.put_slice(&rows.to_le_bytes());
            p.put_slice(&cols.to_le_bytes());
            p.put_f32_le(1.0); // one lonely value
            assert_eq!(
                Request::decode(&p[..]),
                Err(WireError::Truncated {
                    context: "fwd_act data"
                }),
                "rows={rows} cols={cols}"
            );
        }
    }
}
