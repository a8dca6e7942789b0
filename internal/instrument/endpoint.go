package instrument

import (
	"errors"
	"fmt"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/jni"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// ErrNoTaintMap is returned when a dista-mode agent has no Taint Map
// client configured: inter-node tracking cannot proceed without one.
var ErrNoTaintMap = errors.New("instrument: dista mode requires a Taint Map client")

// Endpoint is the taint-aware wrapper around one stream connection. It
// is the runtime object behind the Type 1 wrappers (socketWrite0 /
// socketRead0, Fig. 6) and is reused by the Type 3 dispatcher wrappers,
// since NIO socket channels carry the same continuous frame stream.
//
// Every write goes through the tier-selecting frame writer (DESIGN.md
// §9): the stream opens with the DTF2 magic and each buffer travels as
// a passthrough, uniform, sparse or groups frame, whichever is the
// cheapest sound form given the connection's observed taint density.
// Reads decode every format a peer may send — DTF2, DTF1 framed, or
// the legacy raw group stream.
//
// Exactly one Endpoint must wrap each connection end: it owns the
// stream decoder state that reassembles frames across arbitrarily
// fragmented reads.
type Endpoint struct {
	agent *tracker.Agent
	conn  *netsim.Conn
	w     frameWriter
	r     frameReader
}

// NewEndpoint wraps conn for the given agent.
func NewEndpoint(agent *tracker.Agent, conn *netsim.Conn) *Endpoint {
	return &Endpoint{agent: agent, conn: conn}
}

// Conn exposes the wrapped connection (for close/addr operations).
func (e *Endpoint) Conn() *netsim.Conn { return e.conn }

// Agent returns the endpoint's agent.
func (e *Endpoint) Agent() *tracker.Agent { return e.agent }

// registerRuns maps a tainted b's label runs to wire runs via the
// Taint Map (Fig. 9 steps ①②): one batch registration covering every
// distinct taint, one Run per label run — never per-byte work. Clean
// buffers never get here: every caller routes them to passthrough
// first. The runs are appended to dst (pass a scratch slice to keep a
// fragmented steady state allocation-free, or nil when no scratch
// outlives the call).
func registerRuns(agent *tracker.Agent, b taint.Bytes, dst []wire.Run) ([]wire.Run, error) {
	tm := agent.TaintMap()
	if tm == nil {
		return nil, ErrNoTaintMap
	}
	runs := dst[:0]
	var pending []taint.Taint
	var pendingAt []int
	b.ForEachRun(func(from, to int, t taint.Taint) {
		r := wire.Run{N: to - from}
		if !t.Empty() {
			// Fast path: a taint this node has already transferred
			// carries its Global ID on the tree node (Fig. 9 step ②),
			// so the steady state never builds a taint slice at all.
			if id := t.GlobalID(); id != 0 {
				r.ID = id
			} else {
				pending = append(pending, t)
				pendingAt = append(pendingAt, len(runs))
			}
		}
		runs = append(runs, r)
	})
	if len(pending) > 0 {
		ids, err := tm.RegisterBatch(pending)
		if err != nil {
			return nil, err
		}
		for i, at := range pendingAt {
			// A provisional id is only valid inside this node: a degraded
			// Taint Map client minted it locally, and the receiving node
			// could never resolve it. Refuse the transfer loudly — the
			// taint itself stays tracked and will get its real Global ID
			// when the client's journal drains.
			if taintmap.IsProvisional(ids[i]) {
				return nil, fmt.Errorf("instrument: cannot transfer taint: %w",
					taintmap.ErrGlobalIDPending)
			}
			runs[at].ID = ids[i]
		}
	}
	return runs, nil
}

// registerOne maps one taint to its Global ID via the Taint Map — the
// uniform-tier flavour of registerRuns: a single label for the whole
// buffer, so the steady state is one pointer load off the tree node.
func registerOne(agent *tracker.Agent, t taint.Taint) (uint32, error) {
	tm := agent.TaintMap()
	if tm == nil {
		return 0, ErrNoTaintMap
	}
	if id := t.GlobalID(); id != 0 {
		return id, nil
	}
	ids, err := tm.RegisterBatch([]taint.Taint{t})
	if err != nil {
		return 0, err
	}
	if taintmap.IsProvisional(ids[0]) {
		// Same contract as registerRuns: a locally minted id must not
		// cross the wire.
		return 0, fmt.Errorf("instrument: cannot transfer taint: %w",
			taintmap.ErrGlobalIDPending)
	}
	return ids[0], nil
}

// registerDirty maps b's tainted runs to wire dirty ranges via the Taint
// Map — the sparse-tier flavour of registerRuns: clean gaps produce no
// entries, so the table length is the dirty-run count, not the run
// count. Ranges are appended to dst (reused across calls).
func registerDirty(agent *tracker.Agent, b taint.Bytes, dst []wire.DirtyRange) ([]wire.DirtyRange, error) {
	tm := agent.TaintMap()
	if tm == nil {
		return nil, ErrNoTaintMap
	}
	var pending []taint.Taint
	var pendingAt []int
	b.ForEachDirtyRun(func(from, to int, t taint.Taint) {
		r := wire.DirtyRange{Off: from, Len: to - from}
		if id := t.GlobalID(); id != 0 {
			r.ID = id
		} else {
			pending = append(pending, t)
			pendingAt = append(pendingAt, len(dst))
		}
		dst = append(dst, r)
	})
	if len(pending) > 0 {
		ids, err := tm.RegisterBatch(pending)
		if err != nil {
			return nil, err
		}
		for i, at := range pendingAt {
			if taintmap.IsProvisional(ids[i]) {
				return nil, fmt.Errorf("instrument: cannot transfer taint: %w",
					taintmap.ErrGlobalIDPending)
			}
			dst[at].ID = ids[i]
		}
	}
	return dst, nil
}

// resolveRuns maps decoded wire runs back to taints in the agent's tree
// (Fig. 9 steps ④⑤) with one batch lookup; labels[i] belongs to
// runs[i].
func resolveRuns(agent *tracker.Agent, runs []wire.Run) ([]taint.Taint, error) {
	tm := agent.TaintMap()
	if tm == nil {
		return nil, ErrNoTaintMap
	}
	ids := make([]uint32, len(runs))
	for i, r := range runs {
		ids[i] = r.ID
	}
	return tm.LookupBatch(ids)
}

// adoptRuns writes the resolved run labels over buf's prefix. Lazy
// shadow allocation is preserved: an entirely untainted delivery into a
// shadow-free buf allocates nothing, while a buf that already has
// labels gets its stale ones overwritten.
func adoptRuns(buf *taint.Bytes, runs []wire.Run, labels []taint.Taint) {
	pos := 0
	for i, r := range runs {
		buf.SetRange(pos, pos+r.N, labels[i])
		pos += r.N
	}
}

// trimRuns clips runs to cover at most n bytes.
func trimRuns(runs []wire.Run, n int) []wire.Run {
	for i := range runs {
		if n <= 0 {
			return runs[:i]
		}
		if runs[i].N > n {
			runs[i].N = n
		}
		n -= runs[i].N
	}
	return runs
}

// Write sends b through the instrumented socketWrite0 wrapper.
//
//   - off:      the original native — raw data only;
//   - phosphor: the original native — the labels are *dropped* at the
//     JNI boundary, exactly the limitation of §II-C;
//   - dista:    the bytes travel with the Global IDs of their taints
//     (Fig. 6 sender side), on the cheapest sound wire tier.
func (e *Endpoint) Write(b taint.Bytes) error {
	return e.send(b, jni.SocketWrite0)
}

// WritePassthrough sends bytes that are untainted by construction —
// protocol framing, handshakes, padding a wrapper itself built. In
// dista mode it emits a passthrough frame; other modes write the bytes
// unchanged. This is the sanctioned way to put a raw []byte on a
// tracked connection: the shadowdrop analyzer allowlists passthrough
// helpers by name because the bytes never had labels to drop.
func (e *Endpoint) WritePassthrough(data []byte) error {
	return e.send(taint.WrapBytes(data), jni.SocketWrite0)
}

// WriteUniform sends bytes that all carry the same single taint — a
// wrapper forwarding one labelled record it assembled itself. This is
// the sanctioned way to put a raw []byte with a label on a tracked
// connection (the fast-path analyzer allowlists uniform helpers by name
// because the label rides alongside). The record takes the tier the
// connection's density tracker picks for a wholly single-labelled
// buffer, uniform once the stream has settled there. An empty t
// degrades to WritePassthrough. Modes other than dista write the bytes
// unchanged.
func (e *Endpoint) WriteUniform(data []byte, t taint.Taint) error {
	b := taint.WrapBytes(data)
	b.SetRange(0, len(data), t)
	return e.send(b, jni.SocketWrite0)
}

// WriteBuffer sends the [from,to) range of a direct buffer — the Type 3
// send path (IOUtil.writeFromNativeBuffer -> dispatcher write0, Fig. 8).
// It returns the number of data bytes consumed.
func (e *Endpoint) WriteBuffer(src *jni.DirectBuffer, from, to int) (int, error) {
	if err := src.CheckRange(from, to); err != nil {
		return 0, err
	}
	if err := e.send(src.View(from, to), dispatcherWriteAll); err != nil {
		return 0, err
	}
	return to - from, nil
}

// send writes b through the frame writer over write, the underlying
// native (SocketWrite0 for Type 1, the dispatcher adapter for Type 3).
// A frame goes out as two native writes, the head and then the
// uncopied payload: a stream transport concatenates them.
func (e *Endpoint) send(b taint.Bytes, write func(*netsim.Conn, []byte) error) error {
	return e.w.write(e.agent, b,
		func(p []byte) error { return write(e.conn, p) },
		func(head, body []byte) error {
			if err := write(e.conn, head); err != nil || body == nil {
				return err
			}
			return write(e.conn, body)
		})
}

// dispatcherWriteAll adapts DispatcherWrite0 to the all-or-error shape
// send expects.
func dispatcherWriteAll(c *netsim.Conn, b []byte) error {
	_, err := jni.DispatcherWrite0(c, b)
	return err
}

// Read fills buf through the instrumented socketRead0 wrapper and
// returns the number of data bytes read.
//
//   - off:      the original native;
//   - phosphor: the original native; received bytes keep whatever taint
//     the caller's buffer already had — the wrong "taint of the
//     parameter" flow of Fig. 4;
//   - dista:    reads the enlarged wire stream, splits data from Global
//     IDs, resolves them through the Taint Map, and labels buf.
func (e *Endpoint) Read(buf *taint.Bytes) (int, error) {
	if len(buf.Data) == 0 {
		return 0, nil
	}
	if e.agent.Mode() != tracker.ModeDista {
		return jni.SocketRead0(e.conn, buf.Data)
	}
	return e.r.read(e.agent, buf, e.recv)
}

// ReadBuffer fills the [from,to) range of a direct buffer — the Type 3
// receive path (dispatcher read0 -> IOUtil.readIntoNativeBuffer). It
// returns the number of data bytes read, or io.EOF.
func (e *Endpoint) ReadBuffer(dst *jni.DirectBuffer, from, to int) (int, error) {
	if err := dst.CheckRange(from, to); err != nil {
		return 0, err
	}
	if to == from {
		return 0, nil
	}
	if e.agent.Mode() != tracker.ModeDista {
		// Phosphor's dispatcher wrapper behaves like Fig. 4 too: the
		// buffer's stale shadow is left in place.
		return jni.DispatcherRead0(e.conn, dst.Data[from:to])
	}
	sub := dst.View(from, to)
	return e.r.read(e.agent, &sub, e.recv)
}

// recv is the raw socketRead0 the frame reader pulls wire bytes with.
func (e *Endpoint) recv(p []byte) (int, error) { return jni.SocketRead0(e.conn, p) }
