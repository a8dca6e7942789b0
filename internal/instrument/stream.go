package instrument

import (
	"io"
	"sync"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
)

// The two halves of an instrumented stream, shared by Endpoint (the
// socket and dispatcher natives) and CustomEndpoint (user transports):
// frameWriter is the single encoder every stream send goes through,
// frameReader the liberal decoder every stream receive goes through.

// emitFunc puts one encoded frame on the transport. head is the frame's
// metadata — stream magic, header, Global ID or range table — or, for a
// groups frame, the whole encoded frame; body is the raw payload that
// follows head uncopied, nil when head is complete.
type emitFunc func(head, body []byte) error

// frameWriter is the tier-selecting stream encoder (DESIGN.md §9). The
// first frame opens the stream with the DTF2 magic; every buffer then
// takes the cheapest tier that carries its labels soundly, steered by
// the per-connection density tracker. All fields are guarded by mu,
// which also keeps concurrent writers' frames from interleaving.
type frameWriter struct {
	mu         sync.Mutex
	wroteMagic bool              // stream magic already emitted
	scratch    []byte            // persistent head assembly scratch
	tier       densityTracker    // per-connection tier selector
	dranges    []wire.DirtyRange // persistent sparse range-table scratch
	runs       []wire.Run        // persistent run-registration scratch
}

// write is the one stream send path. Outside dista mode, and for an
// empty buffer, the bytes go to raw, the uninstrumented native, as
// they are. Otherwise b is encoded on its tier and handed to emit; the
// Taint Map is consulted before anything is assembled, so a
// registration failure leaves the stream untouched.
func (w *frameWriter) write(agent *tracker.Agent, b taint.Bytes, raw func([]byte) error, emit emitFunc) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(b.Data)
	if agent.Mode() != tracker.ModeDista {
		agent.AddTraffic(n, n)
		return raw(b.Data)
	}
	if n == 0 {
		// Nothing to frame; still touch the native so conn-level
		// semantics (faults, delays) match the uninstrumented call.
		return raw(nil)
	}
	if b.Clean() {
		// Clean buffers always go passthrough, whatever the tracked
		// tier: no label encoding and no payload copy.
		w.tier.observeClean(n)
		hdr := wire.AppendFrameHeader(w.head(), wire.FramePassthrough, n)
		w.scratch = hdr[:0]
		return put(agent, n, hdr, b.Data, emit)
	}
	st, exact := b.Stats(tierScanLimit)
	w.tier.observe(st, n, exact)
	switch w.tier.frameTier(st, n, exact) {
	case tierUniform:
		id, err := registerOne(agent, st.One)
		if err != nil {
			return err
		}
		hdr := wire.AppendUniformHeader(w.head(), n, id)
		w.scratch = hdr[:0]
		return put(agent, n, hdr, b.Data, emit)
	case tierSparse:
		ranges, err := registerDirty(agent, b, w.dranges[:0])
		if err != nil {
			return err
		}
		w.dranges = ranges[:0]
		hdr := wire.AppendSparseHeader(w.head(), n, ranges)
		w.scratch = hdr[:0]
		return put(agent, n, hdr, b.Data, emit)
	}
	runs, err := registerRuns(agent, b, w.runs)
	if err != nil {
		return err
	}
	w.runs = runs[:0]
	buf := wire.GetBuf(wire.StreamMagicLen + wire.GroupsFrameLen(n) + wire.EncodeSlack)
	out := wire.AppendGroupsFrame(w.magic(*buf), b.Data, runs)
	err = put(agent, n, out, nil, emit)
	*buf = out
	wire.PutBuf(buf)
	return err
}

// head starts a frame head in the persistent scratch. The caller
// stores the grown scratch back once the head is assembled.
func (w *frameWriter) head() []byte { return w.magic(w.scratch[:0]) }

// magic appends the DTF2 stream magic to dst if this is the stream's
// first frame, marking it sent.
func (w *frameWriter) magic(dst []byte) []byte {
	if w.wroteMagic {
		return dst
	}
	w.wroteMagic = true
	return wire.AppendAdaptiveStreamMagic(dst)
}

// put accounts one frame carrying n payload bytes and emits it.
func put(agent *tracker.Agent, n int, head, body []byte, emit emitFunc) error {
	agent.AddTraffic(n, len(head)+len(body))
	return emit(head, body)
}

// frameReader is the receive half of an instrumented stream: the
// liberal frame decoder (DTF2, DTF1 and the legacy raw group stream)
// over an enlarged raw-read scratch that persists across calls, plus
// the sticky error of the underlying transport. mu guards every field.
type frameReader struct {
	mu  sync.Mutex
	dec wire.FrameDecoder
	raw []byte
	err error
}

// read fills buf with decoded data bytes and their labels, pulling raw
// wire bytes through recv until at least one is buffered, and returns
// the number of data bytes stored.
func (r *frameReader) read(agent *tracker.Agent, buf *taint.Bytes, recv func([]byte) (int, error)) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.fill(len(buf.Data), recv); err != nil {
		return 0, err
	}
	n, runs := r.dec.NextRunsInto(buf.Data)
	if wire.RunsAllUntainted(runs) {
		// Clean delivery (passthrough frame or untainted groups): no
		// Taint Map round-trip, and a shadow-free buf stays lazy —
		// only stale labels need clearing.
		if buf.HasShadow() {
			buf.SetRange(0, n, taint.Taint{})
		}
		return n, nil
	}
	labels, err := resolveRuns(agent, runs)
	if err != nil {
		return 0, err
	}
	adoptRuns(buf, runs, labels)
	return n, nil
}

// fill reads raw wire bytes until at least one decoded byte is buffered
// (or an error occurs). The receive buffer is enlarged by the group
// factor plus framing overhead, mirroring the paper's receiver-side
// buffer enlargement.
func (r *frameReader) fill(want int, recv func([]byte) (int, error)) error {
	if r.dec.Buffered() > 0 {
		return nil
	}
	if r.err != nil {
		return r.err
	}
	if need := wire.WireLen(want) + wire.StreamMagicLen + wire.FrameHeaderLen; cap(r.raw) < need {
		r.raw = make([]byte, need)
	}
	raw := r.raw[:cap(r.raw)]
	for r.dec.Buffered() == 0 {
		n, err := recv(raw)
		if n > 0 {
			if ferr := r.dec.Feed(raw[:n]); ferr != nil {
				r.err = ferr
				return ferr
			}
		}
		if err != nil {
			if err == io.EOF && r.dec.PendingPartial() {
				err = io.ErrUnexpectedEOF
			}
			r.err = err
			if r.dec.Buffered() > 0 {
				return nil
			}
			return err
		}
	}
	return nil
}

// buffered reports how many decoded bytes are ready without blocking.
func (r *frameReader) buffered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dec.Buffered()
}
