package netsim

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// connBufferCap bounds each direction's in-flight buffer, providing the
// backpressure a real TCP window would. Writers block when the peer is
// not reading: the free space is the writer's credit count, and a
// writer parks only when its credit reaches zero.
const connBufferCap = 1 << 18 // 256 KiB

// pendingChunk is a span of buffered bytes that latency injection is
// holding back from the reader until `at` passes on the fabric clock.
type pendingChunk struct {
	n  int
	at time.Time
}

// halfPipe is one direction of a stream connection. Delivery is
// event-driven: bytes enter buf immediately (occupying writer credit,
// so the bandwidth-delay product is modelled), but the reader may only
// consume the `ready` prefix. With zero latency ready tracks len(buf)
// and no clock events exist at all; with latency configured, spans
// queue on `pend` and a single armed clock callback per pipe releases
// them in order — never a sleeping goroutine, never a timer per write.
type halfPipe struct {
	net *Network

	mu    sync.Mutex
	rcond *sync.Cond // readers park here
	wcond *sync.Cond // writers park here (credit exhausted)
	// buf holds the unread bytes as a window into arr; arr is the
	// backing array, kept across drains so a steady-state exchange
	// settles into zero allocations (content is bounded by
	// connBufferCap, so retaining it is cheap).
	buf      []byte
	arr      []byte // len 0; full capacity backing store for buf
	ready    int    // prefix of buf the reader may consume now
	pend     []pendingChunk
	pendHead int
	relArmed bool // a release callback is scheduled for pend's head

	writeClosed bool  // no more data will arrive
	readClosed  bool  // reader is gone; writes fail
	failErr     error // connection reset/failed: both sides see this

	deadline time.Time // read deadline; zero = none
	dlTimer  Timer     // wakes waiters when the deadline passes

	onReadable func() // poller hook, invoked on not-readable -> readable edges
}

func newHalfPipe(n *Network) *halfPipe {
	h := &halfPipe{net: n}
	h.rcond = sync.NewCond(&h.mu)
	h.wcond = sync.NewCond(&h.mu)
	return h
}

// readableLocked reports whether a read would return without blocking.
func (h *halfPipe) readableLocked() bool {
	return h.ready > 0 || h.failErr != nil || h.readClosed ||
		(h.writeClosed && len(h.buf) == 0 && h.pendLenLocked() == 0)
}

func (h *halfPipe) pendLenLocked() int { return len(h.pend) - h.pendHead }

// write appends all of b, blocking on backpressure. delay > 0 holds the
// bytes back from the reader until it elapses on the fabric clock.
func (h *halfPipe) write(b []byte, delay time.Duration) (int, error) {
	h.mu.Lock()
	total := 0
	for len(b) > 0 {
		for len(h.buf) >= connBufferCap && !h.readClosed && !h.writeClosed && h.failErr == nil {
			h.wcond.Wait()
		}
		if h.failErr != nil {
			err := h.failErr
			h.mu.Unlock()
			return total, err
		}
		if h.readClosed || h.writeClosed {
			h.mu.Unlock()
			return total, ErrClosed
		}
		space := connBufferCap - len(h.buf)
		if space > len(b) {
			space = len(b)
		}
		h.ensureRoomLocked(space)
		wasReadable := h.readableLocked()
		h.buf = append(h.buf, b[:space]...)
		if delay > 0 || h.pendLenLocked() > 0 {
			// Order is preserved even when the delay just dropped to
			// zero: a span may never overtake one still pending.
			h.pend = append(h.pend, pendingChunk{n: space, at: h.net.clock.Now().Add(delay)})
			h.armReleaseLocked()
		} else {
			h.ready += space
		}
		b = b[space:]
		total += space
		if h.ready > 0 {
			h.rcond.Signal()
		}
		if notify := h.edgeLocked(wasReadable); notify != nil {
			h.mu.Unlock()
			notify()
			h.mu.Lock()
		}
	}
	h.mu.Unlock()
	return total, nil
}

// edgeLocked returns the poller hook when this mutation flipped the
// pipe from not-readable to readable, nil otherwise. The caller invokes
// it with h.mu released (the hook takes the poller's lock).
func (h *halfPipe) edgeLocked(wasReadable bool) func() {
	if h.onReadable != nil && !wasReadable && h.readableLocked() {
		return h.onReadable
	}
	return nil
}

// armReleaseLocked schedules the release callback for the head pending
// span, if one is not already armed. One callback per pipe, re-armed as
// the queue drains — a thousand delayed writes cost one live timer.
func (h *halfPipe) armReleaseLocked() {
	if h.relArmed || h.pendLenLocked() == 0 {
		return
	}
	h.relArmed = true
	d := h.pend[h.pendHead].at.Sub(h.net.clock.Now())
	h.net.clock.AfterFunc(d, h.release)
}

// release is the clock callback delivering due pending spans to the
// reader and re-arming for the next one.
func (h *halfPipe) release() {
	h.mu.Lock()
	h.relArmed = false
	now := h.net.clock.Now()
	wasReadable := h.readableLocked()
	for h.pendLenLocked() > 0 && !h.pend[h.pendHead].at.After(now) {
		h.ready += h.pend[h.pendHead].n
		h.pend[h.pendHead] = pendingChunk{}
		h.pendHead++
	}
	if h.pendHead == len(h.pend) {
		h.pend = h.pend[:0]
		h.pendHead = 0
	}
	h.armReleaseLocked()
	if h.ready > 0 {
		h.rcond.Signal()
	}
	notify := h.edgeLocked(wasReadable)
	h.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// ensureRoomLocked makes the backing array able to take n more bytes
// without append reallocating: compact the unread window back to the
// front of arr when the spare tail is short, and grow arr (doubling,
// capped at connBufferCap) only when the content genuinely does not
// fit. This is what keeps the write path allocation-free once a
// connection has warmed up.
func (h *halfPipe) ensureRoomLocked(n int) {
	if cap(h.buf)-len(h.buf) >= n {
		return
	}
	need := len(h.buf) + n
	if cap(h.arr) < need {
		newCap := cap(h.arr) * 2
		if newCap < 1024 {
			newCap = 1024
		}
		for newCap < need {
			newCap *= 2
		}
		if newCap > connBufferCap && need <= connBufferCap {
			newCap = connBufferCap
		}
		h.arr = make([]byte, 0, newCap)
	}
	// Compact: slide the unread bytes to the front of arr. copy is a
	// memmove, so the overlapping same-array case is fine.
	nbuf := h.arr[:len(h.buf)]
	copy(nbuf, h.buf)
	h.buf = nbuf
}

// deadlineExpiredLocked reports whether a set read deadline has passed.
func (h *halfPipe) deadlineExpiredLocked() bool {
	return !h.deadline.IsZero() && !h.net.clock.Now().Before(h.deadline)
}

func (h *halfPipe) read(b []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.ready == 0 && !h.readClosed && h.failErr == nil &&
		!(h.writeClosed && len(h.buf) == 0 && h.pendLenLocked() == 0) &&
		!h.deadlineExpiredLocked() {
		h.rcond.Wait()
	}
	if h.failErr != nil {
		return 0, h.failErr
	}
	if h.readClosed {
		return 0, ErrClosed
	}
	if h.ready == 0 {
		if h.writeClosed && len(h.buf) == 0 && h.pendLenLocked() == 0 { // drained
			return 0, io.EOF
		}
		return 0, ErrDeadline
	}
	limit := h.ready
	if limit > len(b) {
		limit = len(b)
	}
	n := copy(b, h.buf[:limit])
	h.buf = h.buf[n:]
	h.ready -= n
	if len(h.buf) == 0 {
		// Fully drained: rewind the window to the front of the backing
		// array instead of dropping it, so the next write reuses it.
		h.buf = h.arr
	}
	h.wcond.Signal()
	return n, nil
}

// buffered reports how many bytes a read could return right now.
func (h *halfPipe) buffered() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ready
}

// setReadDeadline installs (or clears, with the zero time) the read
// deadline and arms a clock callback to wake blocked readers when it
// passes.
func (h *halfPipe) setReadDeadline(t time.Time) {
	h.mu.Lock()
	h.deadline = t
	if h.dlTimer != nil {
		h.dlTimer.Stop()
		h.dlTimer = nil
	}
	if !t.IsZero() {
		if d := t.Sub(h.net.clock.Now()); d <= 0 {
			h.rcond.Broadcast()
		} else {
			h.dlTimer = h.net.clock.AfterFunc(d, func() {
				h.mu.Lock()
				h.rcond.Broadcast()
				h.mu.Unlock()
			})
		}
	}
	h.mu.Unlock()
}

// setOnReadable installs the poller's readiness hook (nil removes it).
func (h *halfPipe) setOnReadable(fn func()) {
	h.mu.Lock()
	h.onReadable = fn
	h.mu.Unlock()
}

// fail poisons the pipe: readers and writers on both ends observe err
// from now on (a connection reset).
func (h *halfPipe) fail(err error) {
	h.mu.Lock()
	wasReadable := h.readableLocked()
	if h.failErr == nil {
		h.failErr = err
	}
	h.rcond.Broadcast()
	h.wcond.Broadcast()
	notify := h.edgeLocked(wasReadable)
	h.mu.Unlock()
	if notify != nil {
		notify()
	}
}

func (h *halfPipe) closeWrite() {
	h.mu.Lock()
	wasReadable := h.readableLocked()
	h.writeClosed = true
	h.rcond.Broadcast()
	h.wcond.Broadcast()
	notify := h.edgeLocked(wasReadable)
	h.mu.Unlock()
	if notify != nil {
		notify()
	}
}

func (h *halfPipe) closeRead() {
	h.mu.Lock()
	wasReadable := h.readableLocked()
	h.readClosed = true
	h.rcond.Broadcast()
	h.wcond.Broadcast()
	notify := h.edgeLocked(wasReadable)
	h.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// Conn is a reliable, ordered duplex byte stream between two hosts —
// the TCP analogue. It is safe for one concurrent reader and one
// concurrent writer per direction.
type Conn struct {
	net        *Network
	localAddr  string
	remoteAddr string
	in         *halfPipe // peer -> us
	out        *halfPipe // us -> peer
	closeOnce  sync.Once

	dead     atomic.Bool                  // closed or reset; stall waits check it
	deadOnce sync.Once                    // closes deadCh exactly once
	deadCh   chan struct{}                // closed on Close/Reset; stalled writers select on it
	corrupt  atomic.Pointer[func([]byte)] // write-side corruption hook
}

// newConnPair builds both ends of a connection.
func newConnPair(n *Network, addrA, addrB string) (*Conn, *Conn) {
	ab := newHalfPipe(n)
	ba := newHalfPipe(n)
	a := &Conn{net: n, localAddr: addrA, remoteAddr: addrB, in: ba, out: ab, deadCh: make(chan struct{})}
	b := &Conn{net: n, localAddr: addrB, remoteAddr: addrA, in: ab, out: ba, deadCh: make(chan struct{})}
	return a, b
}

// Read reads available bytes into b, blocking until data arrives, the
// peer half-closes (io.EOF once drained), the read deadline passes
// (ErrDeadline), or the Conn closes.
func (c *Conn) Read(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	return c.in.read(b)
}

// Buffered reports how many bytes are deliverable to Read right now —
// bytes still held back by latency injection do not count. Poller-based
// consumers and deterministic tests use it as a non-blocking probe.
func (c *Conn) Buffered() int { return c.in.buffered() }

// Write writes all of b, blocking on backpressure. Partial writes only
// happen on error. Configured faults apply here: a stalled network
// freezes the write, a partition fails it with ErrPartitioned, and the
// reset coin may kill the connection (ErrReset). Injected latency
// (SetLatency, SetHostLatency) no longer blocks the writer: the bytes
// are queued immediately and become readable at the peer once the delay
// elapses on the fabric clock.
func (c *Conn) Write(b []byte) (int, error) {
	var delay time.Duration
	if c.net.faulty.Load() {
		var err error
		delay, err = c.net.writeFaults(c)
		if err != nil {
			return 0, err
		}
	}
	if fp := c.corrupt.Load(); fp != nil {
		// Corrupt a private copy: the caller's buffer is not ours to
		// scribble on.
		dup := make([]byte, len(b))
		copy(dup, b)
		(*fp)(dup)
		b = dup
	}
	delay += c.net.latencyNow()
	n, err := c.out.write(b, delay)
	c.net.streamBytes.Add(int64(n))
	return n, err
}

// Close shuts down both directions. The peer sees io.EOF after draining
// buffered data; its writes fail.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		// Pipe state first: a writer released from a stall by deadCh
		// must find the pipe already closed, or its bytes could slip in.
		c.out.closeWrite()
		c.in.closeRead()
		c.markDead()
	})
	return nil
}

// Reset hard-kills the connection the way a TCP RST does: both ends
// observe ErrReset on every subsequent read and write, with no EOF
// grace for buffered data.
func (c *Conn) Reset() {
	c.in.fail(ErrReset)
	c.out.fail(ErrReset)
	c.markDead()
}

// markDead releases writers frozen by a stall. Callers make the pipe
// state final first, so a released writer always sees the close or
// reset.
func (c *Conn) markDead() {
	c.dead.Store(true)
	c.deadOnce.Do(func() { close(c.deadCh) })
}

// SetReadDeadline makes reads fail with ErrDeadline once t passes; the
// zero time clears it. It mirrors net.Conn's method so deadline-aware
// servers run unchanged over the simulated network. The deadline is
// interpreted on the network's clock (wall time unless a VirtualClock
// is installed).
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.in.setReadDeadline(t)
	return nil
}

// SetCorruptor installs fn as this connection's write-side corruption
// hook: every written payload is copied and fn may mutate the copy
// before it enters the stream. nil removes the hook. Corruption models
// a faulty link or peer, for testing protocol robustness.
func (c *Conn) SetCorruptor(fn func(p []byte)) {
	if fn == nil {
		c.corrupt.Store(nil)
		return
	}
	c.corrupt.Store(&fn)
}

// CloseWrite half-closes the outgoing direction only (like shutdown(SHUT_WR)).
func (c *Conn) CloseWrite() {
	c.out.closeWrite()
}

// LocalAddr returns the connection's local address string.
func (c *Conn) LocalAddr() string { return c.localAddr }

// RemoteAddr returns the peer's address string.
func (c *Conn) RemoteAddr() string { return c.remoteAddr }

var (
	_ io.ReadWriteCloser = (*Conn)(nil)
)
