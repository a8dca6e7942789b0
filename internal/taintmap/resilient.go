package taintmap

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// This file implements the resilience layer around the Taint Map client
// path (DESIGN.md "Failure model"). A ResilientClient wraps the
// multiplexed RemoteClient with:
//
//   - per-call deadlines (a wedged connection fails fast instead of
//     hanging every instrumented write behind it),
//   - transparent reconnect with jittered exponential backoff,
//   - idempotent replay: registration is content-addressed, so the
//     registers journaled during an outage re-issue safely after
//     reconnect and resolve to the same Global IDs any other node got,
//   - a circuit breaker: after BreakerThreshold consecutive failed
//     reconnect attempts the client stops making callers wait and
//     enters degraded local mode,
//   - degraded local mode: while the server is unreachable, Register
//     resolves against a local content-addressed Store and returns a
//     provisional id (high bit set), queueing the registration in a
//     bounded store-and-forward journal that drains on reconnect.
//     Intra-node tracking and sink checks keep working; only
//     cross-node transfer must wait for a real Global ID (callers see
//     ErrGlobalIDPending, not a stall).

// provisionalBit marks ids minted by the degraded local store. Real
// Global IDs grow from 1, so the two spaces cannot collide until the
// Taint Map holds 2^31 distinct taints.
const provisionalBit uint32 = 1 << 31

// IsProvisional reports whether id was minted locally during an outage
// and is not yet backed by the Taint Map. Provisional ids are valid for
// intra-node tracking and sink checks but must not cross nodes.
func IsProvisional(id uint32) bool { return id&provisionalBit != 0 }

// Typed failures of the resilience layer, matched with errors.Is.
var (
	// ErrDegraded reports an operation the degraded client cannot serve
	// locally (e.g. looking up a Global ID never seen on this node).
	ErrDegraded = errors.New("taintmap: degraded: taint map unreachable")
	// ErrJournalFull reports a degraded-mode registration rejected
	// because the store-and-forward journal hit its bound. It matches
	// ErrDegraded under errors.Is.
	ErrJournalFull = fmt.Errorf("%w: journal full", ErrDegraded)
	// ErrGlobalIDPending reports a taint that is tracked (present,
	// checkable at sinks) but whose Global ID is provisional, so it
	// cannot be transferred to another node yet.
	ErrGlobalIDPending = errors.New("taintmap: taint present, global ID pending")
)

// DialFunc opens one connection to the Taint Map server. The
// ResilientClient calls it for the initial connection and again on
// every reconnect attempt.
type DialFunc func() (io.ReadWriteCloser, error)

// ResilientOptions tunes a ResilientClient. The zero value selects the
// documented defaults; a negative CallTimeout or JitterFrac disables
// that feature outright.
type ResilientOptions struct {
	// CallTimeout bounds every wire call. Default 2s; negative disables
	// per-call deadlines.
	CallTimeout time.Duration
	// BackoffBase is the first reconnect delay. Default 5ms.
	BackoffBase time.Duration
	// BackoffMax caps the doubling backoff. Default 1s. Once degraded,
	// this is the probe cadence for detecting a healed server.
	BackoffMax time.Duration
	// JitterFrac spreads each delay uniformly in ±frac around the
	// schedule so a fleet of clients does not reconnect in lockstep.
	// Default 0.2; negative disables jitter (deterministic schedule).
	JitterFrac float64
	// BreakerThreshold is how many consecutive failed reconnect
	// attempts trip the circuit breaker into degraded mode. Default 3.
	BreakerThreshold int
	// JournalLimit bounds the degraded-mode store-and-forward journal;
	// registrations past it fail with ErrJournalFull. Default 4096.
	JournalLimit int
	// Seed seeds the jitter generator; 0 uses a fixed default seed.
	Seed int64

	// clk times the backoff waits and the retry budget's refill; tests
	// inject a netsim.VirtualClock. nil means the wall clock.
	clk netsim.Clock
	// memo injects a shared id -> taint cache; nil allocates a private
	// one. The cluster client threads one memo through every member so a
	// taint resolved via any replica is warm for all of them.
	memo *cache
	// local injects the degraded-mode provisional-id store; nil
	// allocates a standalone (partition 0) one. The cluster client hands
	// each member a store of that member's partition, so even
	// provisional ids carry the partition that will eventually own them.
	local *Store
	// budget injects the shared retry budget gating reconnect dials
	// (and, at the cluster layer, hedges); nil means unbudgeted. The
	// cluster client threads one budget through every member so a
	// cluster-wide brownout cannot multiply into per-member dial storms.
	budget *Budget
}

func (o *ResilientOptions) withDefaults() ResilientOptions {
	opt := *o
	switch {
	case opt.CallTimeout == 0:
		opt.CallTimeout = 2 * time.Second
	case opt.CallTimeout < 0:
		opt.CallTimeout = 0
	}
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = 5 * time.Millisecond
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = time.Second
	}
	switch {
	case opt.JitterFrac == 0:
		opt.JitterFrac = 0.2
	case opt.JitterFrac < 0:
		opt.JitterFrac = 0
	}
	if opt.BreakerThreshold <= 0 {
		opt.BreakerThreshold = 3
	}
	if opt.JournalLimit <= 0 {
		opt.JournalLimit = 4096
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.clk == nil {
		opt.clk = netsim.WallClock()
	}
	if opt.memo == nil {
		opt.memo = &cache{}
	}
	if opt.local == nil {
		opt.local = NewStore()
	}
	return opt
}

// backoffDelay computes the delay before reconnect attempt number
// attempt (0-based): base doubled per attempt, capped at max, spread by
// ±jitter. Pure so the schedule is unit-testable.
func backoffDelay(attempt int, base, max time.Duration, jitter float64, rng *rand.Rand) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if jitter > 0 {
		d = time.Duration(float64(d) * (1 + jitter*(2*rng.Float64()-1)))
	}
	if d < 0 {
		d = base
	}
	return d
}

// journalEntry is one degraded-mode registration awaiting replay.
type journalEntry struct {
	blob string      // serialized taint (the content address)
	prov uint32      // provisional id handed to the caller
	t    taint.Taint // node to stamp with the real Global ID on drain
}

// ResilientClient is a Client that survives Taint Map outages. The
// healthy hot path is one atomic load plus the wrapped RemoteClient
// call; all resilience machinery sits on the failure paths.
//
// State machine: connected -> (connection failure) -> reconnecting
// (callers briefly wait) -> either connected again, or — after
// BreakerThreshold failed attempts — degraded, where Register journals
// locally and Lookup serves from the memo. Reconnect attempts continue
// at the backoff cap; on success the journal drains (idempotent
// content-addressed replay), provisional ids are remapped, and the
// client is connected again.
type ResilientClient struct {
	dial DialFunc
	tree *taint.Tree
	opt  ResilientOptions
	memo *cache // shared across connection epochs

	inner atomic.Pointer[RemoteClient] // nil while disconnected

	mu           sync.Mutex
	cond         *sync.Cond // broadcast on every state transition
	seq          uint64     // state-change counter; waiters watch it
	degraded     bool
	reconnecting bool
	draining     bool // a background drainLoop is running
	closed       bool
	local        *Store // degraded-mode provisional id source
	queued       []journalEntry
	journaled    map[uint32]struct{} // provisional ids currently queued
	remap        map[uint32]uint32   // provisional -> real Global ID

	// drainMu serializes journal drains: the reconnect loop and the
	// background drainLoop both replay c.queued, and two concurrent
	// drains would each truncate the queue by their own batch length.
	drainMu sync.Mutex

	rng  *rand.Rand // jitter; used only by the single reconnect loop
	done chan struct{}

	reconnects     atomic.Int64
	dialFailures   atomic.Int64
	probeFailures  atomic.Int64
	journaledTotal atomic.Int64
	drainedTotal   atomic.Int64
}

var _ Client = (*ResilientClient)(nil)

// NewResilientClient dials the Taint Map and returns a client that
// keeps itself connected. Construction never fails: if the first dial
// errors the client starts in the reconnecting state and callers block
// (bounded by the breaker) or run degraded until the server appears.
func NewResilientClient(dial DialFunc, tree *taint.Tree, opt ResilientOptions) *ResilientClient {
	c := &ResilientClient{
		dial:      dial,
		tree:      tree,
		opt:       opt.withDefaults(),
		journaled: make(map[uint32]struct{}),
		remap:     make(map[uint32]uint32),
		done:      make(chan struct{}),
	}
	c.memo = c.opt.memo
	c.local = c.opt.local
	c.cond = sync.NewCond(&c.mu)
	c.rng = rand.New(rand.NewSource(c.opt.Seed))
	if conn, err := c.dial(); err == nil {
		c.inner.Store(newRemoteClientWith(conn, tree, c.memo, c.opt.CallTimeout))
	} else {
		c.dialFailures.Add(1)
		c.reconnecting = true
		go c.reconnectLoop(1)
	}
	return c
}

// isConnErr reports whether err means the connection (not the request)
// failed, so the call is worth retrying on a fresh connection.
func isConnErr(err error) bool {
	return errors.Is(err, ErrClientClosed) || errors.Is(err, ErrCallTimeout)
}

// connFailed retires a dead inner client and starts the reconnect loop.
// Concurrent callers may report the same client; only the first one
// transitions the state.
func (c *ResilientClient) connFailed(old *RemoteClient) {
	c.mu.Lock()
	if c.inner.Load() == old {
		c.inner.Store(nil)
		c.seq++
		c.cond.Broadcast()
		if !c.reconnecting && !c.closed {
			c.reconnecting = true
			go c.reconnectLoop(0)
		}
	}
	c.mu.Unlock()
	old.Close()
}

// reconnectLoop re-dials with jittered exponential backoff until the
// server answers, then drains the journal and republishes the client.
// failures carries consecutive failed attempts (the constructor's
// failed first dial counts); at BreakerThreshold it trips the breaker.
func (c *ResilientClient) reconnectLoop(failures int) {
	attempt := 0
	for {
		c.mu.Lock()
		if c.closed {
			c.reconnecting = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		// Reconnect dials are retry traffic: they spend from the shared
		// budget, so a fleet-wide brownout cannot be amplified into a
		// dial storm. A denied attempt counts as a failure (the breaker
		// may trip into degraded mode) and waits out the backoff.
		if !c.opt.budget.TryTake(1) {
			failures++
			c.maybeTrip(failures)
			if !c.sleep(attempt) {
				return
			}
			attempt++
			continue
		}
		conn, err := c.dial()
		if err != nil {
			c.dialFailures.Add(1)
			failures++
			c.maybeTrip(failures)
			if !c.sleep(attempt) {
				return
			}
			attempt++
			continue
		}
		rc := newRemoteClientWith(conn, c.tree, c.memo, c.opt.CallTimeout)
		// Probe before trusting the connection: a gray-failing server
		// accepts the dial and then never answers, and publishing it
		// would hand every caller a stall. One stats round trip (bounded
		// by the watchdog) proves the server is answering. Skipped when
		// deadlines are disabled — the probe itself could hang forever.
		if c.opt.CallTimeout > 0 {
			if _, err := rc.call(opStats, nil); err != nil {
				rc.Close()
				c.probeFailures.Add(1)
				failures++
				c.maybeTrip(failures)
				if !c.sleep(attempt) {
					return
				}
				attempt++
				continue
			}
		}
		if err := c.drainJournal(rc); err != nil {
			rc.Close()
			failures++
			c.maybeTrip(failures)
			if !c.sleep(attempt) {
				return
			}
			attempt++
			continue
		}

		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			rc.Close()
			return
		}
		if len(c.queued) > 0 {
			// A degraded caller journaled between the drain and here;
			// go around and drain again before publishing.
			c.mu.Unlock()
			continue
		}
		c.inner.Store(rc)
		c.degraded = false
		c.reconnecting = false
		c.seq++
		c.cond.Broadcast()
		c.mu.Unlock()
		c.reconnects.Add(1)
		return
	}
}

// maybeTrip flips the client into degraded mode once enough consecutive
// reconnect attempts have failed, releasing every waiting caller into
// the local path.
func (c *ResilientClient) maybeTrip(failures int) {
	if failures < c.opt.BreakerThreshold {
		return
	}
	c.mu.Lock()
	if !c.degraded && !c.closed {
		c.degraded = true
		c.seq++
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// sleep waits out the backoff delay for attempt; false means the client
// closed and the loop must exit.
func (c *ResilientClient) sleep(attempt int) bool {
	d := backoffDelay(attempt, c.opt.BackoffBase, c.opt.BackoffMax, c.opt.JitterFrac, c.rng)
	if c.wait(d) {
		return true
	}
	c.mu.Lock()
	c.reconnecting = false
	c.mu.Unlock()
	return false
}

// wait blocks for d on the client's clock; false means the client
// closed first.
func (c *ResilientClient) wait(d time.Duration) bool {
	fired := make(chan struct{})
	t := c.opt.clk.AfterFunc(d, func() { close(fired) })
	select {
	case <-fired:
		return true
	case <-c.done:
		t.Stop()
		return false
	}
}

// drainJournal replays every queued registration through rc. Replay is
// idempotent: registration is content-addressed, so re-sending a blob
// the server already has (from a pre-crash send or another node)
// returns the same Global ID. Each drained entry remaps its provisional
// id and stamps the real id onto the taint node.
func (c *ResilientClient) drainJournal(rc *RemoteClient) error {
	c.drainMu.Lock()
	defer c.drainMu.Unlock()
	for {
		c.mu.Lock()
		batch := c.queued
		c.mu.Unlock()
		if len(batch) == 0 {
			return nil
		}
		ids := make([]uint32, len(batch))
		for i, e := range batch {
			id, err := rc.registerBlob([]byte(e.blob))
			if err != nil {
				return err
			}
			ids[i] = id
		}
		c.mu.Lock()
		for i, e := range batch {
			c.remap[e.prov] = ids[i]
			e.t.SetGlobalID(ids[i])
			c.memo.put(ids[i], e.t)
			delete(c.journaled, e.prov)
		}
		// New entries may have been appended behind the batch; keep them.
		c.queued = c.queued[len(batch):]
		c.mu.Unlock()
		c.drainedTotal.Add(int64(len(batch)))
	}
}

// journalLocked registers t against the local store and queues the
// registration for replay, returning a provisional id. Caller holds
// c.mu with the client degraded.
func (c *ResilientClient) journalLocked(t taint.Taint) (uint32, error) {
	blob, err := taint.MarshalTaint(t)
	if err != nil {
		return 0, err
	}
	return c.journalBlobLocked(t, blob)
}

// journalBlobLocked is journalLocked for callers that already hold t's
// serialized form.
func (c *ResilientClient) journalBlobLocked(t taint.Taint, blob []byte) (uint32, error) {
	prov := provisionalBit | c.local.RegisterBlob(blob)
	if gid, ok := c.remap[prov]; ok {
		// Seen and drained in an earlier outage: the real id is known.
		t.SetGlobalID(gid)
		c.memo.put(gid, t)
		return gid, nil
	}
	if _, ok := c.journaled[prov]; ok {
		return prov, nil
	}
	if len(c.queued) >= c.opt.JournalLimit {
		return 0, fmt.Errorf("%w (%d queued)", ErrJournalFull, len(c.queued))
	}
	c.queued = append(c.queued, journalEntry{blob: string(blob), prov: prov, t: t})
	c.journaled[prov] = struct{}{}
	c.journaledTotal.Add(1)
	// Memoize under the provisional id so sink-side lookups resolve
	// locally. The real Global ID is NOT stamped on t: cross-node
	// transfer must keep failing with ErrGlobalIDPending until drain.
	c.memo.put(prov, t)
	return prov, nil
}

// journalFallback journals one registration regardless of breaker
// state: the partition-scoped degraded path. The cluster client calls
// it when a whole partition is effectively unavailable — every replica
// down, the retry budget empty, or the owner shedding load
// (ErrOverloaded) — so the caller gets a provisional id now instead of
// an error, and a background drain replays the journal as soon as this
// member's connection can absorb it, without waiting for a full
// disconnect/reconnect cycle.
func (c *ResilientClient) journalFallback(t taint.Taint, blob []byte) (uint32, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClientClosed
	}
	id, err := c.journalBlobLocked(t, blob)
	kick := err == nil && !c.draining && c.inner.Load() != nil
	if kick {
		c.draining = true
	}
	c.mu.Unlock()
	if kick {
		go c.drainLoop()
	}
	return id, err
}

// drainLoop replays journalFallback entries in the background while the
// client stays connected. On any drain failure it stops: the entries
// stay queued and the reconnect loop replays them before republishing a
// fresh connection.
func (c *ResilientClient) drainLoop() {
	ok := true
	defer func() {
		c.mu.Lock()
		again := ok && !c.closed && len(c.queued) > 0 && c.inner.Load() != nil
		c.draining = again
		c.mu.Unlock()
		if again {
			// An entry landed between the last pass and here; keep going
			// so it does not sit until the next fallback or reconnect.
			go c.drainLoop()
		}
	}()
	for {
		rc := c.inner.Load()
		c.mu.Lock()
		done := c.closed || len(c.queued) == 0
		c.mu.Unlock()
		if done || rc == nil {
			return
		}
		if err := c.drainJournal(rc); err != nil {
			if isConnErr(err) {
				c.connFailed(rc)
				ok = false
				return
			}
			// The server answered but refused the replay — most likely
			// still shedding (ErrOverloaded). Retry after a full backoff
			// while the budget allows; once it denies, the journal waits
			// for the next fallback kick or reconnect drain.
			if !c.opt.budget.TryTake(1) {
				ok = false
				return
			}
			if !c.wait(c.opt.BackoffMax) {
				ok = false
				return
			}
		}
	}
}

// lookupAttempt is one single-shot Lookup leg for the cluster client's
// hedged reads: it uses whatever connection is live right now and fails
// fast — no reconnect wait, no breaker wait — because the hedge engine
// has other replicas to try. A non-zero deadline bounds the wait inline
// without declaring the connection wedged.
func (c *ResilientClient) lookupAttempt(id uint32, deadline time.Time) (taint.Taint, error) {
	if t, ok := c.memo.get(id); ok {
		return t, nil
	}
	rc := c.inner.Load()
	if rc == nil {
		return taint.Taint{}, fmt.Errorf("%w: no connection", ErrDegraded)
	}
	t, err := rc.lookupDeadline(id, deadline)
	if err != nil && isConnErr(err) {
		c.connFailed(rc)
	}
	return t, err
}

// lookupBatchAttempt is lookupAttempt for an id batch. Results land in
// the shared memo; the caller refetches from there.
func (c *ResilientClient) lookupBatchAttempt(ids []uint32, deadline time.Time) error {
	rc := c.inner.Load()
	if rc == nil {
		return fmt.Errorf("%w: no connection", ErrDegraded)
	}
	_, err := rc.lookupBatchDeadline(ids, deadline)
	if err != nil && isConnErr(err) {
		c.connFailed(rc)
	}
	return err
}

// await blocks until the client leaves the "disconnected, breaker not
// yet tripped" state. Caller holds c.mu; await returns with it held.
func (c *ResilientClient) await() {
	seq := c.seq
	for c.seq == seq && !c.closed {
		c.cond.Wait()
	}
}

// Register implements Client. Healthy: one atomic load + the wrapped
// call. Disconnected: waits for reconnect, bounded by the breaker.
// Degraded: journals locally and returns a provisional id.
func (c *ResilientClient) Register(t taint.Taint) (uint32, error) {
	if t.Empty() {
		return 0, nil
	}
	if id := t.GlobalID(); id != 0 {
		return id, nil
	}
	for {
		if rc := c.inner.Load(); rc != nil {
			id, err := rc.Register(t)
			if err == nil || !isConnErr(err) {
				return id, err
			}
			c.connFailed(rc)
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return 0, ErrClientClosed
		}
		if c.inner.Load() != nil {
			c.mu.Unlock()
			continue
		}
		if c.degraded {
			id, err := c.journalLocked(t)
			c.mu.Unlock()
			return id, err
		}
		c.await()
		c.mu.Unlock()
	}
}

// registerMarshaled is Register for callers that already serialized t
// (the cluster client, which marshals first to route by content hash).
// Same state machine: healthy registers remotely, degraded journals.
func (c *ResilientClient) registerMarshaled(t taint.Taint, blob []byte) (uint32, error) {
	if id := t.GlobalID(); id != 0 {
		return id, nil
	}
	for {
		if rc := c.inner.Load(); rc != nil {
			id, err := rc.registerMarshaled(t, blob)
			if err == nil || !isConnErr(err) {
				return id, err
			}
			c.connFailed(rc)
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return 0, ErrClientClosed
		}
		if c.inner.Load() != nil {
			c.mu.Unlock()
			continue
		}
		if c.degraded {
			id, err := c.journalBlobLocked(t, blob)
			c.mu.Unlock()
			return id, err
		}
		c.await()
		c.mu.Unlock()
	}
}

// registerPending registers pre-marshaled (taint, blob) pairs as one
// batch, stamping and memoizing each result — the cluster client's
// per-partition slice of a RegisterBatch. Degraded, every entry
// journals and gets a provisional id (not stamped on the taint, per the
// ErrGlobalIDPending contract).
func (c *ResilientClient) registerPending(ts []taint.Taint, blobs [][]byte) ([]uint32, error) {
	for {
		if rc := c.inner.Load(); rc != nil {
			ids, err := rc.registerBlobs(blobs)
			if err == nil {
				for i, t := range ts {
					t.SetGlobalID(ids[i])
					c.memo.put(ids[i], t)
				}
				return ids, nil
			}
			if !isConnErr(err) {
				return nil, err
			}
			c.connFailed(rc)
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClientClosed
		}
		if c.inner.Load() != nil {
			c.mu.Unlock()
			continue
		}
		if c.degraded {
			ids := make([]uint32, len(ts))
			for i, t := range ts {
				id, err := c.journalBlobLocked(t, blobs[i])
				if err != nil {
					c.mu.Unlock()
					return nil, err
				}
				ids[i] = id
			}
			c.mu.Unlock()
			return ids, nil
		}
		c.await()
		c.mu.Unlock()
	}
}

// rawCall issues one tagged protocol op on the live connection — the
// cluster client's channel for ring fetches and read-repair pushes.
// There is no degraded fallback: cluster maintenance traffic is
// meaningless without a server, so a disconnected client fails fast
// with ErrDegraded instead of journaling or waiting out the breaker.
func (c *ResilientClient) rawCall(op byte, payload []byte) ([]byte, error) {
	for {
		rc := c.inner.Load()
		if rc == nil {
			return nil, fmt.Errorf("%w: no connection for op %q", ErrDegraded, op)
		}
		reply, err := rc.call(op, payload)
		if err == nil || !isConnErr(err) {
			return reply, err
		}
		c.connFailed(rc)
	}
}

// Lookup implements Client. Provisional ids resolve through the remap
// table or the degraded-mode memo without touching the wire; real ids
// follow the same healthy/wait/degraded paths as Register.
func (c *ResilientClient) Lookup(id uint32) (taint.Taint, error) {
	if id == 0 {
		return taint.Taint{}, nil
	}
	if t, ok := c.memo.get(id); ok {
		return t, nil
	}
	if IsProvisional(id) {
		return c.lookupProvisional(id)
	}
	for {
		if rc := c.inner.Load(); rc != nil {
			t, err := rc.Lookup(id)
			if err == nil || !isConnErr(err) {
				return t, err
			}
			c.connFailed(rc)
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return taint.Taint{}, ErrClientClosed
		}
		if c.inner.Load() != nil {
			c.mu.Unlock()
			continue
		}
		if c.degraded {
			c.mu.Unlock()
			return taint.Taint{}, fmt.Errorf("%w: lookup of unknown id %d", ErrDegraded, id)
		}
		c.await()
		c.mu.Unlock()
	}
}

// lookupProvisional resolves a provisional id: through the remap table
// when a drain already assigned the real Global ID, else from the local
// store the id was minted by.
func (c *ResilientClient) lookupProvisional(id uint32) (taint.Taint, error) {
	c.mu.Lock()
	gid, remapped := c.remap[id]
	c.mu.Unlock()
	if remapped {
		return c.Lookup(gid)
	}
	blob, err := c.local.LookupBlob(id &^ provisionalBit)
	if err != nil {
		return taint.Taint{}, err
	}
	t, err := c.tree.UnmarshalTaint(blob)
	if err != nil {
		return taint.Taint{}, err
	}
	// No SetGlobalID: the node must not carry a provisional id into the
	// cross-node transfer path.
	c.memo.put(id, t)
	return t, nil
}

// RegisterBatch implements Client.
func (c *ResilientClient) RegisterBatch(ts []taint.Taint) ([]uint32, error) {
	for {
		if rc := c.inner.Load(); rc != nil {
			ids, err := rc.RegisterBatch(ts)
			if err == nil || !isConnErr(err) {
				return ids, err
			}
			c.connFailed(rc)
			continue
		}
		ids, pending, _ := collectRegister(ts)
		if len(pending) == 0 {
			return ids, nil
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClientClosed
		}
		if c.inner.Load() != nil {
			c.mu.Unlock()
			continue
		}
		if c.degraded {
			for i, t := range ts {
				if t.Empty() {
					continue
				}
				if id := t.GlobalID(); id != 0 {
					ids[i] = id
					continue
				}
				id, err := c.journalLocked(t)
				if err != nil {
					c.mu.Unlock()
					return nil, err
				}
				ids[i] = id
			}
			c.mu.Unlock()
			return ids, nil
		}
		c.await()
		c.mu.Unlock()
	}
}

// LookupBatch implements Client. Provisional ids never reach the wire:
// a batch containing any falls back to per-id resolution, which routes
// each provisional id through remap/local-store and the rest through
// the normal path.
func (c *ResilientClient) LookupBatch(ids []uint32) ([]taint.Taint, error) {
	for _, id := range ids {
		if IsProvisional(id) {
			return c.lookupBatchSlow(ids)
		}
	}
	for {
		if rc := c.inner.Load(); rc != nil {
			ts, err := rc.LookupBatch(ids)
			if err == nil || !isConnErr(err) {
				return ts, err
			}
			c.connFailed(rc)
			continue
		}
		ts, missing := c.memo.splitBatch(ids)
		if len(missing) == 0 {
			return ts, nil
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClientClosed
		}
		if c.inner.Load() != nil {
			c.mu.Unlock()
			continue
		}
		if c.degraded {
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: lookup of %d unknown ids", ErrDegraded, len(missing))
		}
		c.await()
		c.mu.Unlock()
	}
}

func (c *ResilientClient) lookupBatchSlow(ids []uint32) ([]taint.Taint, error) {
	ts := make([]taint.Taint, len(ids))
	for i, id := range ids {
		t, err := c.Lookup(id)
		if err != nil {
			return nil, err
		}
		ts[i] = t
	}
	return ts, nil
}

// Health is a snapshot of the resilience state, for tests, monitoring
// and the degraded-mode banner.
type Health struct {
	Connected     bool  // a live connection is published
	Degraded      bool  // breaker tripped; registers journal locally
	JournalLen    int   // registrations queued for replay
	Reconnects    int64 // successful reconnects
	DialFailures  int64 // failed dial attempts
	ProbeFailures int64 // dials that succeeded but failed the answer probe
	Journaled     int64 // registrations ever journaled
	Drained       int64 // journaled registrations replayed
}

// Health reports the client's current resilience state.
func (c *ResilientClient) Health() Health {
	c.mu.Lock()
	h := Health{
		Connected:  c.inner.Load() != nil,
		Degraded:   c.degraded,
		JournalLen: len(c.queued),
	}
	c.mu.Unlock()
	h.Reconnects = c.reconnects.Load()
	h.DialFailures = c.dialFailures.Load()
	h.ProbeFailures = c.probeFailures.Load()
	h.Journaled = c.journaledTotal.Load()
	h.Drained = c.drainedTotal.Load()
	return h
}

// Close implements Client: it stops the reconnect loop, closes any live
// connection and fails subsequent calls with ErrClientClosed. Journaled
// registrations that never drained are dropped — their taints live on
// in this process but were never assigned Global IDs.
func (c *ResilientClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	rc := c.inner.Load()
	c.inner.Store(nil)
	c.seq++
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.done)
	if rc != nil {
		return rc.Close()
	}
	return nil
}
