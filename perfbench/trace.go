package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dista/internal/core/taint"
	"dista/internal/taintmap"
)

// Span names. Each marks one call the benchmark makes into a layer.
const (
	spanOp       = "op"                // one whole op, driver side
	spanSend     = "jre.send"          // a jre write/send call
	spanRecv     = "jre.recv"          // a jre read/receive call, waiting included
	spanRegister = "taintmap.register" // Client.Register / RegisterBatch
	spanLookup   = "taintmap.lookup"   // Client.Lookup / LookupBatch
	spanPeerRecv = "jre.peer.recv"     // the echoing peer's receive call
	spanPeerSend = "jre.peer.send"     // the echoing peer's send call
)

// span is one timed call. Spans of one op share op; parent is the id of
// the span that caused it (0 for a root).
type span struct {
	id, parent int64
	op         int64
	name       string
	start, end int64 // nanoseconds since the tracer's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory for the length of one traced round.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id and start time.
func (t *tracer) begin() (int64, int64) { return t.nextID.Add(1), t.now() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// sessTrace is one session's tracing state: the op under way and its
// root span. Each session owns its agents, so the Taint Map decorator of
// an agent finds its parent span through the session (and side) that
// owns the agent.
type sessTrace struct {
	tr     *tracer
	op     atomic.Int64
	opSpan atomic.Int64
	client atomic.Pointer[side] // the side driving ops
}

// side returns a new side of the session: one goroutine's view, with its
// own stack of open spans. A nil session gives a nil (untraced) side.
func (t *sessTrace) side() *side {
	if t == nil {
		return nil
	}
	return &side{sess: t}
}

// side is the span state of one goroutine of a session: the client
// driving ops, or a peer echoing them.
type side struct {
	sess *sessTrace
	cur  atomic.Int64 // innermost open span on this side, 0 if none
}

// call runs fn inside a span named name; a nil side runs fn untraced. A
// span opened while nothing is open on its side (a peer waiting for the
// next request) belongs to the op under way when it ends: its parent is
// the client's innermost open span at that moment (the jre call waiting
// for this peer), so op id and parent are read at the end.
func (s *side) call(name string, fn func() error) error {
	if s == nil {
		return fn()
	}
	tr := s.sess.tr
	id, start := tr.begin()
	parent := s.cur.Swap(id)
	err := fn()
	s.cur.Store(parent)
	if c := s.sess.client.Load(); parent == 0 && c != nil {
		parent = c.cur.Load()
	}
	if parent == 0 {
		parent = s.sess.opSpan.Load()
	}
	tr.add(span{id: id, parent: parent, op: s.sess.op.Load(), name: name, start: start, end: tr.now()})
	return err
}

// startOp opens the root span of op number op on a client side.
func (s *side) startOp(op int64) (id, start int64) {
	if s == nil {
		return 0, 0
	}
	id, start = s.sess.tr.begin()
	s.sess.client.Store(s)
	s.sess.op.Store(op)
	s.sess.opSpan.Store(id)
	s.cur.Store(id)
	return id, start
}

func (s *side) endOp(id, start int64) {
	if s == nil {
		return
	}
	s.cur.Store(0)
	s.sess.tr.add(span{id: id, op: s.sess.op.Load(), name: spanOp, start: start, end: s.sess.tr.now()})
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Children are found by parent id, never by time overlap, so spans of a
// concurrent session that happen to overlap in time are not subtracted.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.id] = s.dur() - covered(s.start, s.end, kids[s.id])
	}
	return self
}

// covered returns how much of [from, to) the union of ivs covers.
func covered(from, to int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := from
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], to)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// writeSpans writes spans as CSV (id,parent,op,name,start_ns,end_ns).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,op,name,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.op, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Probe counters, indexes into probe.c. The server counters are
// indexed further by the untagged op byte of the request.
const (
	registerCalls = iota             // decorator: Register / RegisterBatch calls
	lookupCalls                      // decorator: Lookup / LookupBatch calls
	registerItems                    // taints those calls carried
	lookupItems                      // ids those calls carried
	clientErrors                     // errors returned through the decorator
	rpcBytes                         // bytes both ways on agent <-> Taint Map connections
	rpcWrites                        // writes on those connections
	peerBytes                        // bytes both ways on member <-> member replication links
	peerWrites                       // writes on those links
	serverReqs                       // + op byte: requests served
	serverItems   = serverReqs + 256 // + op byte: items in them
	numCounters   = serverItems + 256
)

// counts is a snapshot of a probe's counters.
type counts [numCounters]int64

// probe holds what the traced run installs around the program: the
// tracer, the Taint Map client decorator's counters, the counting
// connections' and the server request hook's. The end-to-end runs
// install none of it.
type probe struct {
	tr *tracer
	c  [numCounters]atomic.Int64
}

func newProbe() *probe { return &probe{tr: newTracer()} }

// serverHook is the counting service-model hook: it counts and never
// sleeps.
func (p *probe) serverHook(op byte, items int) {
	p.c[serverReqs+int(op)].Add(1)
	p.c[serverItems+int(op)].Add(int64(items))
}

func (p *probe) counts() counts {
	var c counts
	for i := range c {
		c[i] = p.c[i].Load()
	}
	return c
}

// add adds o times sign into c.
func (c *counts) add(o counts, sign int64) {
	for i := range c {
		c[i] += sign * o[i]
	}
}

// server sums a server counter (serverReqs or serverItems) over ops,
// every op byte when ops is empty.
func (c *counts) server(base int, ops string) int64 {
	var n int64
	for op := 0; op < 256; op++ {
		if ops == "" || strings.IndexByte(ops, byte(op)) >= 0 {
			n += c[base+op]
		}
	}
	return n
}

// countConn counts the bytes and write calls crossing one connection.
type countConn struct {
	io.ReadWriteCloser
	bytes, writes *atomic.Int64
}

func (c countConn) Read(b []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(b)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countConn) Write(b []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(b)
	c.bytes.Add(int64(n))
	c.writes.Add(1)
	return n, err
}

// tracedClient decorates a taintmap.Client with counts and spans. It is
// transparent: nothing in the program type-asserts the client.
type tracedClient struct {
	inner taintmap.Client
	p     *probe
	side  *side
}

func (c *tracedClient) span(name string, calls, items, n int, fn func() error) {
	c.p.c[calls].Add(1)
	c.p.c[items].Add(int64(n))
	if err := c.side.call(name, fn); err != nil {
		c.p.c[clientErrors].Add(1)
	}
}

func (c *tracedClient) Register(t taint.Taint) (id uint32, err error) {
	c.span(spanRegister, registerCalls, registerItems, 1, func() error {
		id, err = c.inner.Register(t)
		return err
	})
	return id, err
}

func (c *tracedClient) Lookup(id uint32) (t taint.Taint, err error) {
	c.span(spanLookup, lookupCalls, lookupItems, 1, func() error {
		t, err = c.inner.Lookup(id)
		return err
	})
	return t, err
}

func (c *tracedClient) RegisterBatch(ts []taint.Taint) (ids []uint32, err error) {
	c.span(spanRegister, registerCalls, registerItems, len(ts), func() error {
		ids, err = c.inner.RegisterBatch(ts)
		return err
	})
	return ids, err
}

func (c *tracedClient) LookupBatch(ids []uint32) (ts []taint.Taint, err error) {
	c.span(spanLookup, lookupCalls, lookupItems, len(ids), func() error {
		ts, err = c.inner.LookupBatch(ids)
		return err
	})
	return ts, err
}

func (c *tracedClient) Close() error { return c.inner.Close() }
