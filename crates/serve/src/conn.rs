//! Per-connection state machines for the event-driven front end.
//!
//! Each accepted socket becomes a [`Conn`] living in one event loop's
//! slab. The loop drives it with nonblocking reads ([`Conn::fill`] feeds a
//! [`FrameBuffer`]) and nonblocking writes ([`Conn::flush`] drains the
//! outbound queue), while batch-worker completions deliver encoded replies
//! through the connection's shared [`ConnHandle`] — a small mailbox the
//! owning loop empties into the outbound queue on its next wakeup. The
//! handle (not the `Conn`) is what escapes the loop thread, so all socket
//! I/O stays single-threaded per connection.

use std::collections::{HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hpnn_bytes::{FrameBuffer, FrameTooLong};

use crate::protocol::MAX_FRAME_PAYLOAD;

/// Ceiling on undecoded bytes buffered per connection. Must admit one
/// maximum-size frame (header + payload) so decode can always make
/// progress; the slack above that is one read burst. Reads pause — level-
/// triggered readiness re-arms them — once the buffer reaches the cap, so
/// a client that pipelines without reading replies fills the kernel
/// receive buffer and TCP pushes back instead of the server buffering
/// without bound.
pub const READ_BUFFER_CAP: usize = MAX_FRAME_PAYLOAD + 64 * 1024;

/// One encoded frame bound for a connection's socket.
#[derive(Debug)]
pub struct Outbound {
    /// Fully encoded frame bytes.
    pub buf: Vec<u8>,
    /// For `LOGITS` replies: when the reply was handed off, plus its
    /// correlation ID — the `writeback` histogram sample is recorded from
    /// this stamp when the reply transfers to the outbound queue, and the
    /// trace span closes when the bytes hit the socket.
    pub reply_ready: Option<(Instant, u32)>,
    /// For completion replies: the correlation to remove from the
    /// connection's in-flight window when this reply transfers to the
    /// outbound queue. Retiring on the loop thread (not on the worker that
    /// fired the completion) keeps the window non-empty until the reply is
    /// queued, so a half-closed connection can never be reclaimed with its
    /// reply still in the mailbox.
    pub retire_correlation: Option<u32>,
}

/// The cross-thread face of a connection: completions push encoded replies
/// here and the owning event loop drains them. Also carries the dirty-list
/// dedup flag.
#[derive(Debug)]
pub struct ConnHandle {
    /// Slab slot of the owning connection in its event loop.
    pub token: usize,
    out: Mutex<VecDeque<Outbound>>,
    queued: AtomicBool,
}

impl ConnHandle {
    /// A handle for the connection in slab slot `token`.
    pub fn new(token: usize) -> Self {
        ConnHandle {
            token,
            out: Mutex::new(VecDeque::new()),
            queued: AtomicBool::new(false),
        }
    }

    /// Queues one encoded reply for the owning loop to collect.
    pub fn push(&self, out: Outbound) {
        self.out.lock().unwrap().push_back(out);
    }

    /// Takes everything queued since the last call.
    pub fn take(&self) -> VecDeque<Outbound> {
        std::mem::take(&mut self.out.lock().unwrap())
    }

    /// True if a dirty-list registration is already pending; marks one
    /// pending either way. The registering thread adds the handle to the
    /// loop's dirty list only on `false`.
    pub fn mark_queued(&self) -> bool {
        self.queued.swap(true, Ordering::AcqRel)
    }

    /// Re-arms dirty-list registration; the owning loop calls this before
    /// draining [`take`](Self::take) so no push can slip between unnoticed.
    pub fn clear_queued(&self) {
        self.queued.store(false, Ordering::Release);
    }
}

/// What [`Conn::fill`] observed on the socket.
#[derive(Debug, PartialEq, Eq)]
pub enum FillOutcome {
    /// Read everything currently available; the connection stays open.
    Open,
    /// The peer half-closed its write side (EOF). Buffered frames remain
    /// decodable and queued replies should still be flushed.
    Eof,
    /// A transport error; the connection is unusable.
    Broken,
}

/// What [`Conn::flush`] left behind.
#[derive(Debug, PartialEq, Eq)]
pub enum FlushOutcome {
    /// Outbound queue fully written.
    Clean,
    /// The socket's send buffer filled; poll for writability.
    Pending,
    /// A write error; the connection is unusable.
    Broken,
}

/// One connection's state inside an event loop slab.
pub struct Conn {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Incremental frame reassembly over whatever bytes arrived.
    pub frames: FrameBuffer,
    /// Encoded frames awaiting socket room; front entry may be partially
    /// written (`front_written` bytes already sent).
    pub outbound: VecDeque<Outbound>,
    front_written: usize,
    /// Cross-thread reply mailbox for this slot.
    pub handle: std::sync::Arc<ConnHandle>,
    /// Correlation IDs in flight (the pipelining window). Only the loop
    /// thread touches it: admission inserts, [`absorb`](Conn::absorb)
    /// retires.
    pub inflight: HashSet<u32>,
    /// The peer sent EOF; no more frames will arrive but queued replies
    /// still flush.
    pub read_closed: bool,
    /// Fatal protocol error: flush what is queued, then close. Decoding
    /// stops immediately.
    pub closing: bool,
}

impl Conn {
    /// Wraps an accepted stream: nonblocking, `TCP_NODELAY`, fresh decode
    /// and window state.
    ///
    /// # Errors
    ///
    /// Propagates socket option failures (the caller drops the stream).
    pub fn new(stream: TcpStream, handle: std::sync::Arc<ConnHandle>) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            frames: FrameBuffer::new(MAX_FRAME_PAYLOAD),
            outbound: VecDeque::new(),
            front_written: 0,
            handle,
            inflight: HashSet::new(),
            read_closed: false,
            closing: false,
        })
    }

    /// Whether the event loop should read this socket at all: not while
    /// the peer is gone or the connection is closing, and — the
    /// backpressure half — not while decode is stalled (outbound queue at
    /// `outbound_cap`) or the frame buffer already holds a full frame's worth of undecoded bytes. Pausing the
    /// read is what lets the kernel receive buffer fill and TCP push back
    /// on a flooding client.
    pub fn wants_read(&self, outbound_cap: usize) -> bool {
        !self.read_closed
            && !self.closing
            && self.outbound.len() < outbound_cap
            && self.frames.buffered_len() < READ_BUFFER_CAP
    }

    /// Reads what is currently available into the frame buffer, stopping
    /// at [`READ_BUFFER_CAP`] buffered bytes (level-triggered readiness
    /// resumes the read once decode drains the buffer).
    pub fn fill(&mut self, scratch: &mut [u8]) -> FillOutcome {
        loop {
            if self.frames.buffered_len() >= READ_BUFFER_CAP {
                return FillOutcome::Open;
            }
            match self.stream.read(scratch) {
                Ok(0) => return FillOutcome::Eof,
                Ok(n) => self.frames.feed(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FillOutcome::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return FillOutcome::Broken,
            }
        }
    }

    /// Pops the next buffered frame payload unless the connection is
    /// closing.
    ///
    /// # Errors
    ///
    /// [`FrameTooLong`] on a lying length prefix; the caller replies and
    /// sets [`closing`](Conn::closing).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameTooLong> {
        if self.closing {
            return Ok(None);
        }
        self.frames.next_frame()
    }

    /// Appends an encoded frame to the outbound queue.
    pub fn enqueue(&mut self, out: Outbound) {
        self.outbound.push_back(out);
    }

    /// Transfers one mailboxed completion reply into the outbound queue,
    /// retiring its in-flight correlation on the loop thread only now, so
    /// [`retired`](Conn::retired) cannot observe an empty window with the
    /// reply still in a mailbox.
    pub fn absorb(&mut self, out: Outbound) {
        if let Some(corr) = out.retire_correlation {
            self.inflight.remove(&corr);
        }
        self.outbound.push_back(out);
    }

    /// Writes as much of the outbound queue as the socket accepts,
    /// closing each `LOGITS` reply's `writeback` trace span as its last
    /// byte is handed to the kernel.
    pub fn flush(&mut self) -> FlushOutcome {
        while let Some(front) = self.outbound.front() {
            while self.front_written < front.buf.len() {
                match self.stream.write(&front.buf[self.front_written..]) {
                    Ok(0) => return FlushOutcome::Broken,
                    Ok(n) => self.front_written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return FlushOutcome::Pending;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return FlushOutcome::Broken,
                }
            }
            if let Some((ready, corr)) = front.reply_ready {
                hpnn_trace::span_since("writeback", ready, Some(u64::from(corr)));
            }
            self.outbound.pop_front();
            self.front_written = 0;
        }
        FlushOutcome::Clean
    }

    /// True when nothing remains to write.
    pub fn flushed(&self) -> bool {
        self.outbound.is_empty()
    }

    /// True once the connection has nothing left to do: the peer stopped
    /// sending, every in-flight request resolved, and all replies are on
    /// the wire.
    pub fn retired(&self) -> bool {
        self.read_closed && self.outbound.is_empty() && self.inflight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn plain(buf: Vec<u8>) -> Outbound {
        Outbound {
            buf,
            reply_ready: None,
            retire_correlation: None,
        }
    }

    #[test]
    fn fill_decodes_frames_and_reports_eof() {
        let (client, server) = pair();
        let handle = std::sync::Arc::new(ConnHandle::new(0));
        let mut conn = Conn::new(server, handle).unwrap();
        let mut wire = hpnn_bytes::BytesMut::new();
        hpnn_bytes::put_frame(&mut wire, b"hello");
        (&client).write_all(&wire[..]).unwrap();

        let mut scratch = [0u8; 4096];
        // Loopback delivery may take an instant; poll until the frame lands.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        loop {
            assert_eq!(conn.fill(&mut scratch), FillOutcome::Open);
            if let Some(frame) = conn.next_frame().unwrap() {
                assert_eq!(frame, b"hello");
                break;
            }
            assert!(Instant::now() < deadline, "frame never arrived");
        }
        drop(client);
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while conn.fill(&mut scratch) != FillOutcome::Eof {
            assert!(Instant::now() < deadline, "EOF never observed");
        }
    }

    #[test]
    fn flush_handles_partial_writes_and_drains() {
        let (client, server) = pair();
        let handle = std::sync::Arc::new(ConnHandle::new(0));
        let mut conn = Conn::new(server, handle).unwrap();
        // Far more than any socket buffer: forces Pending at least once.
        let big = vec![0xA5u8; 32 << 20];
        conn.enqueue(plain(big.clone()));
        let mut pending_seen = false;
        let mut received = 0usize;
        let mut scratch = vec![0u8; 1 << 20];
        client.set_nonblocking(true).unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while !conn.flushed() {
            match conn.flush() {
                FlushOutcome::Clean => break,
                FlushOutcome::Pending => {
                    pending_seen = true;
                    // Drain the client side so the server can make progress.
                    match (&client).read(&mut scratch) {
                        Ok(n) => received += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                        Err(e) => panic!("client read failed: {e}"),
                    }
                }
                FlushOutcome::Broken => panic!("loopback write broke"),
            }
            assert!(Instant::now() < deadline, "flush never completed");
        }
        assert!(pending_seen, "32 MiB must not fit in one send buffer");
        // Collect the rest.
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while received < big.len() {
            match (&client).read(&mut scratch) {
                Ok(0) => panic!("server closed early"),
                Ok(n) => received += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(e) => panic!("client read failed: {e}"),
            }
            assert!(Instant::now() < deadline, "payload never fully arrived");
        }
        assert_eq!(received, big.len());
    }

    #[test]
    fn handle_mailbox_queues_and_dedups() {
        let handle = ConnHandle::new(3);
        assert!(!handle.mark_queued(), "first registration wins");
        assert!(handle.mark_queued(), "second is deduped");
        handle.push(plain(vec![1, 2, 3]));
        handle.clear_queued();
        let drained = handle.take();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].buf, vec![1, 2, 3]);
        assert!(handle.take().is_empty());
        assert!(!handle.mark_queued(), "re-armed after clear_queued");
    }

    #[test]
    fn absorb_retires_correlation_at_transfer() {
        let (_client, server) = pair();
        let handle = std::sync::Arc::new(ConnHandle::new(0));
        let mut conn = Conn::new(server, handle).unwrap();
        conn.read_closed = true;
        conn.inflight.insert(7);
        // Half-closed peer, nothing queued — but a reply is still owed:
        // the slot must not be reclaimed.
        assert!(!conn.retired(), "reply in flight, cannot retire");

        let mut reply = plain(vec![1]);
        reply.retire_correlation = Some(7);
        conn.absorb(reply);
        assert!(conn.inflight.is_empty(), "correlation retired at transfer");
        assert_eq!(conn.outbound.len(), 1);
        assert!(!conn.retired(), "reply queued but not yet written");
        conn.outbound.clear();
        assert!(conn.retired());
    }

    #[test]
    fn wants_read_gates_on_backlog() {
        let (_client, server) = pair();
        let handle = std::sync::Arc::new(ConnHandle::new(0));
        let mut conn = Conn::new(server, handle).unwrap();
        let cap = 4;
        assert!(conn.wants_read(cap));
        for _ in 0..cap {
            conn.enqueue(plain(vec![0]));
        }
        assert!(!conn.wants_read(cap), "outbound at cap pauses reads");
        conn.outbound.clear();
        conn.frames.feed(&vec![0u8; READ_BUFFER_CAP]);
        assert!(!conn.wants_read(cap), "full frame buffer pauses reads");
    }

    #[test]
    fn fill_stops_reading_at_the_buffer_cap() {
        let (client, server) = pair();
        let handle = std::sync::Arc::new(ConnHandle::new(0));
        let mut conn = Conn::new(server, handle).unwrap();
        // A flood far past the cap — more than kernel socket buffers could
        // ever absorb — written from a helper thread (the write blocks
        // once server-side buffers stop draining, and errors out when the
        // test drops the connection).
        let flood = READ_BUFFER_CAP + (64 << 20);
        let writer = std::thread::spawn(move || {
            let chunk = vec![0u8; 1 << 20];
            let mut sent = 0usize;
            while sent < flood {
                let n = (flood - sent).min(chunk.len());
                if (&client).write_all(&chunk[..n]).is_err() {
                    break;
                }
                sent += n;
            }
            drop(client);
        });
        let mut scratch = vec![0u8; 64 * 1024];
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while conn.frames.buffered_len() < READ_BUFFER_CAP {
            assert_ne!(conn.fill(&mut scratch), FillOutcome::Broken);
            assert!(Instant::now() < deadline, "cap never reached");
        }
        // However often fill is polled, the buffer must stay pinned at the
        // cap (one read burst of slack at most).
        for _ in 0..32 {
            assert_eq!(conn.fill(&mut scratch), FillOutcome::Open);
        }
        assert!(
            conn.frames.buffered_len() <= READ_BUFFER_CAP + scratch.len(),
            "buffered {} exceeds cap {} + slack",
            conn.frames.buffered_len(),
            READ_BUFFER_CAP
        );
        // `wants_read` now gates the socket off entirely.
        assert!(!conn.wants_read(usize::MAX));
        drop(conn);
        writer.join().unwrap();
    }
}
