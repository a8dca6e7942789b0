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
)

// This file implements the resilience layer each ClusterClient member
// runs around its multiplexed RemoteClient (DESIGN.md "Failure model"):
//
//   - per-call deadlines (a wedged connection fails fast instead of
//     hanging every instrumented write behind it),
//   - transparent reconnect with jittered exponential backoff,
//   - idempotent replay: registration is content-addressed, so the
//     registers journaled during an outage re-issue safely after
//     reconnect and resolve to the same Global IDs any other node got,
//   - a circuit breaker: after BreakerThreshold consecutive failed
//     reconnect attempts the member stops making callers wait and
//     enters degraded local mode,
//   - degraded local mode: while the server is unreachable, a register
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

// clusterMember is one ring member's client state. The healthy hot path
// is one atomic load plus the wrapped RemoteClient call; all resilience
// machinery sits on the failure paths.
//
// State machine: connected -> (connection failure) -> reconnecting
// (callers briefly wait) -> either connected again, or — after
// BreakerThreshold failed attempts — degraded, where registers journal
// locally and lookups serve from the memo. Reconnect attempts continue
// at the backoff cap; on success the journal drains (idempotent
// content-addressed replay), provisional ids are remapped, and the
// member is connected again.
type clusterMember struct {
	part   uint32
	addr   string
	dial   func(addr string) (io.ReadWriteCloser, error)
	tree   *taint.Tree
	opt    *ClusterOptions // the owning client's, defaults filled
	memo   *cache          // shared by every member and connection epoch
	local  *Store          // degraded-mode provisional id source
	budget *Budget         // shared retry budget gating reconnect dials

	inner atomic.Pointer[RemoteClient] // nil while disconnected

	mu           sync.Mutex
	cond         *sync.Cond // broadcast on every state transition
	seq          uint64     // state-change counter; waiters watch it
	degraded     bool
	reconnecting bool
	draining     bool // a background drainLoop is running
	closed       bool
	queued       []journalEntry
	journaled    map[uint32]struct{} // provisional ids currently queued
	remap        map[uint32]uint32   // provisional -> real Global ID

	// drainMu serializes journal drains: the reconnect loop and the
	// background drainLoop both replay m.queued, and two concurrent
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

// newClusterMember dials member m and returns its state. It never
// fails: if the first dial errors the member starts in the reconnecting
// state and callers block (bounded by the breaker) or run degraded
// until the server appears. memo is shared by every member so a taint
// resolved via any replica is warm for all of them; local is a store of
// m's own partition, so even provisional ids carry the partition that
// will eventually own them; budget is shared so a cluster-wide brownout
// cannot multiply into per-member dial storms.
func newClusterMember(m Member, dial func(addr string) (io.ReadWriteCloser, error), tree *taint.Tree, opt *ClusterOptions, memo *cache, local *Store, budget *Budget) *clusterMember {
	cm := &clusterMember{
		part:      m.Part,
		addr:      m.Addr,
		dial:      dial,
		tree:      tree,
		opt:       opt,
		memo:      memo,
		local:     local,
		budget:    budget,
		journaled: make(map[uint32]struct{}),
		remap:     make(map[uint32]uint32),
		rng:       rand.New(rand.NewSource(opt.Seed)),
		done:      make(chan struct{}),
	}
	cm.cond = sync.NewCond(&cm.mu)
	if conn, err := dial(m.Addr); err == nil {
		cm.inner.Store(newRemoteClientWith(conn, tree, memo, opt.CallTimeout))
	} else {
		cm.dialFailures.Add(1)
		cm.reconnecting = true
		go cm.reconnectLoop(1)
	}
	return cm
}

// isConnErr reports whether err means the connection (not the request)
// failed, so the call is worth retrying on a fresh connection.
func isConnErr(err error) bool {
	return errors.Is(err, ErrClientClosed) || errors.Is(err, ErrCallTimeout)
}

// connFailed retires a dead inner client and starts the reconnect loop.
// Concurrent callers may report the same client; only the first one
// transitions the state.
func (m *clusterMember) connFailed(old *RemoteClient) {
	m.mu.Lock()
	if m.inner.Load() == old {
		m.inner.Store(nil)
		m.seq++
		m.cond.Broadcast()
		if !m.reconnecting && !m.closed {
			m.reconnecting = true
			go m.reconnectLoop(0)
		}
	}
	m.mu.Unlock()
	old.Close()
}

// reconnectLoop re-dials with jittered exponential backoff until the
// server answers, then drains the journal and republishes the client.
// failures carries consecutive failed attempts (the constructor's
// failed first dial counts); at BreakerThreshold it trips the breaker.
func (m *clusterMember) reconnectLoop(failures int) {
	attempt := 0
	for {
		m.mu.Lock()
		if m.closed {
			m.reconnecting = false
			m.mu.Unlock()
			return
		}
		m.mu.Unlock()

		rc, ok := m.redial()
		if !ok {
			failures++
			m.maybeTrip(failures)
			if !m.sleep(attempt) {
				return
			}
			attempt++
			continue
		}

		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			rc.Close()
			return
		}
		if len(m.queued) > 0 {
			// A degraded caller journaled between the drain and here;
			// go around and drain again before publishing.
			m.mu.Unlock()
			rc.Close()
			continue
		}
		m.inner.Store(rc)
		m.degraded = false
		m.reconnecting = false
		m.seq++
		m.cond.Broadcast()
		m.mu.Unlock()
		m.reconnects.Add(1)
		return
	}
}

// redial is one reconnect attempt: a budgeted dial, an answer probe and
// a journal drain over the fresh connection. It returns the connection
// ready to publish, or false when any step failed.
func (m *clusterMember) redial() (*RemoteClient, bool) {
	// Reconnect dials are retry traffic: they spend from the shared
	// budget, so a fleet-wide brownout cannot be amplified into a dial
	// storm. A denied attempt counts as a failure (the breaker may trip
	// into degraded mode) and waits out the backoff.
	if !m.budget.TryTake(1) {
		return nil, false
	}
	conn, err := m.dial(m.addr)
	if err != nil {
		m.dialFailures.Add(1)
		return nil, false
	}
	rc := newRemoteClientWith(conn, m.tree, m.memo, m.opt.CallTimeout)
	// Probe before trusting the connection: a gray-failing server
	// accepts the dial and then never answers, and publishing it would
	// hand every caller a stall. One stats round trip (bounded by the
	// watchdog) proves the server is answering. Skipped when deadlines
	// are disabled — the probe itself could hang forever.
	if m.opt.CallTimeout > 0 {
		if _, err := rc.call(opStats, nil); err != nil {
			rc.Close()
			m.probeFailures.Add(1)
			return nil, false
		}
	}
	if err := m.drainJournal(rc); err != nil {
		rc.Close()
		return nil, false
	}
	return rc, true
}

// maybeTrip flips the member into degraded mode once enough consecutive
// reconnect attempts have failed, releasing every waiting caller into
// the local path.
func (m *clusterMember) maybeTrip(failures int) {
	if failures < m.opt.BreakerThreshold {
		return
	}
	m.mu.Lock()
	if !m.degraded && !m.closed {
		m.degraded = true
		m.seq++
		m.cond.Broadcast()
	}
	m.mu.Unlock()
}

// sleep waits out the backoff delay for attempt; false means the member
// closed and the loop must exit.
func (m *clusterMember) sleep(attempt int) bool {
	d := backoffDelay(attempt, m.opt.BackoffBase, m.opt.BackoffMax, m.opt.JitterFrac, m.rng)
	if m.wait(d) {
		return true
	}
	m.mu.Lock()
	m.reconnecting = false
	m.mu.Unlock()
	return false
}

// wait blocks for d on the client's clock; false means the member
// closed first.
func (m *clusterMember) wait(d time.Duration) bool {
	fired := make(chan struct{})
	t := m.opt.clk.AfterFunc(d, func() { close(fired) })
	select {
	case <-fired:
		return true
	case <-m.done:
		t.Stop()
		return false
	}
}

// drainJournal replays every queued registration through rc. Replay is
// idempotent: registration is content-addressed, so re-sending a blob
// the server already has (from a pre-crash send or another node)
// returns the same Global ID. Each drained entry remaps its provisional
// id and stamps the real id onto the taint node.
func (m *clusterMember) drainJournal(rc *RemoteClient) error {
	m.drainMu.Lock()
	defer m.drainMu.Unlock()
	for {
		m.mu.Lock()
		batch := m.queued
		m.mu.Unlock()
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
		m.mu.Lock()
		for i, e := range batch {
			m.remap[e.prov] = ids[i]
			e.t.SetGlobalID(ids[i])
			m.memo.put(ids[i], e.t)
			delete(m.journaled, e.prov)
		}
		// New entries may have been appended behind the batch; keep them.
		m.queued = m.queued[len(batch):]
		m.mu.Unlock()
		m.drainedTotal.Add(int64(len(batch)))
	}
}

// journalLocked registers t (serialized as blob) against the local
// store and queues the registration for replay, returning a provisional
// id. Caller holds m.mu.
func (m *clusterMember) journalLocked(t taint.Taint, blob []byte) (uint32, error) {
	prov := provisionalBit | m.local.RegisterBlob(blob)
	if gid, ok := m.remap[prov]; ok {
		// Seen and drained in an earlier outage: the real id is known.
		t.SetGlobalID(gid)
		m.memo.put(gid, t)
		return gid, nil
	}
	if _, ok := m.journaled[prov]; ok {
		return prov, nil
	}
	if len(m.queued) >= m.opt.JournalLimit {
		return 0, fmt.Errorf("%w (%d queued)", ErrJournalFull, len(m.queued))
	}
	m.queued = append(m.queued, journalEntry{blob: string(blob), prov: prov, t: t})
	m.journaled[prov] = struct{}{}
	m.journaledTotal.Add(1)
	// Memoize under the provisional id so sink-side lookups resolve
	// locally. The real Global ID is NOT stamped on t: cross-node
	// transfer must keep failing with ErrGlobalIDPending until drain.
	m.memo.put(prov, t)
	return prov, nil
}

// journalFallback journals one registration regardless of breaker
// state: the partition-scoped degraded path. The cluster client calls
// it when the owner sheds load (ErrOverloaded), so the caller gets a
// provisional id now instead of an error, and a background drain
// replays the journal as soon as this member's connection can absorb
// it, without waiting for a full disconnect/reconnect cycle.
func (m *clusterMember) journalFallback(t taint.Taint, blob []byte) (uint32, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, ErrClientClosed
	}
	id, err := m.journalLocked(t, blob)
	kick := err == nil && !m.draining && m.inner.Load() != nil
	if kick {
		m.draining = true
	}
	m.mu.Unlock()
	if kick {
		go m.drainLoop()
	}
	return id, err
}

// drainLoop replays journalFallback entries in the background while the
// member stays connected. On any drain failure it stops: the entries
// stay queued and the reconnect loop replays them before republishing a
// fresh connection.
func (m *clusterMember) drainLoop() {
	ok := true
	defer func() {
		m.mu.Lock()
		again := ok && !m.closed && len(m.queued) > 0 && m.inner.Load() != nil
		m.draining = again
		m.mu.Unlock()
		if again {
			// An entry landed between the last pass and here; keep going
			// so it does not sit until the next fallback or reconnect.
			go m.drainLoop()
		}
	}()
	for {
		rc := m.inner.Load()
		m.mu.Lock()
		done := m.closed || len(m.queued) == 0
		m.mu.Unlock()
		if done || rc == nil {
			return
		}
		if err := m.drainJournal(rc); err != nil {
			if isConnErr(err) {
				m.connFailed(rc)
				ok = false
				return
			}
			// The server answered but refused the replay — most likely
			// still shedding (ErrOverloaded). Retry after a full backoff
			// while the budget allows; once it denies, the journal waits
			// for the next fallback kick or reconnect drain.
			if !m.budget.TryTake(1) {
				ok = false
				return
			}
			if !m.wait(m.opt.BackoffMax) {
				ok = false
				return
			}
		}
	}
}

// await blocks until the member leaves the "disconnected, breaker not
// yet tripped" state. Caller holds m.mu; await returns with it held.
func (m *clusterMember) await() {
	seq := m.seq
	for m.seq == seq && !m.closed {
		m.cond.Wait()
	}
}

// retry is the waiting state machine every blocking entry point runs
// on. Connected: live runs on the connection, and a connection error
// retires it and goes around. Disconnected: the caller waits for the
// reconnect, bounded by the breaker. Degraded: degraded runs under m.mu
// and answers locally.
func (m *clusterMember) retry(live func(rc *RemoteClient) error, degraded func() error) error {
	for {
		if rc := m.inner.Load(); rc != nil {
			err := live(rc)
			if err == nil || !isConnErr(err) {
				return err
			}
			m.connFailed(rc)
			continue
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return ErrClientClosed
		}
		if m.inner.Load() != nil {
			m.mu.Unlock()
			continue
		}
		if m.degraded {
			err := degraded()
			m.mu.Unlock()
			return err
		}
		m.await()
		m.mu.Unlock()
	}
}

// live runs op once on whatever connection is published right now and
// fails fast — no reconnect wait, no breaker wait — with ErrDegraded
// when there is none. It is the channel for hedged read attempts (the
// hedge engine has other replicas to try) and for ring fetches and
// read-repair pushes (maintenance traffic is meaningless without a
// server). A connection error still retires the connection.
func (m *clusterMember) live(op func(rc *RemoteClient) error) error {
	rc := m.inner.Load()
	if rc == nil {
		return fmt.Errorf("%w: no connection to partition %d", ErrDegraded, m.part)
	}
	err := op(rc)
	if err != nil && isConnErr(err) {
		m.connFailed(rc)
	}
	return err
}

// register registers t, already serialized as blob (the cluster client
// marshals first to route by content hash). Degraded, it journals.
func (m *clusterMember) register(t taint.Taint, blob []byte) (id uint32, err error) {
	err = m.retry(func(rc *RemoteClient) (e error) {
		id, e = rc.registerMarshaled(t, blob)
		return e
	}, func() (e error) {
		id, e = m.journalLocked(t, blob)
		return e
	})
	return id, err
}

// registerBatch registers pre-marshaled (taint, blob) pairs as one
// batch, stamping and memoizing each result — the cluster client's
// per-partition slice of a RegisterBatch. Degraded, every entry
// journals and gets a provisional id (not stamped on the taint, per the
// ErrGlobalIDPending contract).
func (m *clusterMember) registerBatch(ts []taint.Taint, blobs [][]byte) (ids []uint32, err error) {
	err = m.retry(func(rc *RemoteClient) (e error) {
		if ids, e = rc.registerBlobs(blobs); e != nil {
			return e
		}
		for i, t := range ts {
			t.SetGlobalID(ids[i])
			m.memo.put(ids[i], t)
		}
		return nil
	}, func() error {
		ids = make([]uint32, len(ts))
		for i, t := range ts {
			id, e := m.journalLocked(t, blobs[i])
			if e != nil {
				return e
			}
			ids[i] = id
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// lookup resolves one id. Provisional ids resolve through the remap
// table or the local store without touching the wire; real ids follow
// the retry state machine and cannot be served degraded unless the
// memo holds them.
func (m *clusterMember) lookup(id uint32) (t taint.Taint, err error) {
	if t, ok := m.memo.get(id); ok {
		return t, nil
	}
	if IsProvisional(id) {
		return m.lookupProvisional(id)
	}
	err = m.retry(func(rc *RemoteClient) (e error) {
		t, e = rc.Lookup(id)
		return e
	}, func() error {
		return fmt.Errorf("%w: lookup of unknown id %d", ErrDegraded, id)
	})
	return t, err
}

// lookupBatch resolves real (non-provisional) ids into the shared memo;
// the caller reads the taints from there.
func (m *clusterMember) lookupBatch(ids []uint32) error {
	return m.retry(func(rc *RemoteClient) error {
		_, e := rc.LookupBatch(ids)
		return e
	}, func() error {
		return fmt.Errorf("%w: lookup of %d unknown ids", ErrDegraded, len(ids))
	})
}

// lookupProvisional resolves a provisional id: through the remap table
// when a drain already assigned the real Global ID, else from the local
// store the id was minted by.
func (m *clusterMember) lookupProvisional(id uint32) (taint.Taint, error) {
	m.mu.Lock()
	gid, remapped := m.remap[id]
	m.mu.Unlock()
	if remapped {
		return m.lookup(gid)
	}
	blob, err := m.local.LookupBlob(id &^ provisionalBit)
	if err != nil {
		return taint.Taint{}, err
	}
	t, err := m.tree.UnmarshalTaint(blob)
	if err != nil {
		return taint.Taint{}, err
	}
	// No SetGlobalID: the node must not carry a provisional id into the
	// cross-node transfer path.
	m.memo.put(id, t)
	return t, nil
}

// Health is one member's resilience snapshot, for tests, monitoring and
// the degraded-mode banner.
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

// health reports the member's current resilience state.
func (m *clusterMember) health() Health {
	m.mu.Lock()
	h := Health{
		Connected:  m.inner.Load() != nil,
		Degraded:   m.degraded,
		JournalLen: len(m.queued),
	}
	m.mu.Unlock()
	h.Reconnects = m.reconnects.Load()
	h.DialFailures = m.dialFailures.Load()
	h.ProbeFailures = m.probeFailures.Load()
	h.Journaled = m.journaledTotal.Load()
	h.Drained = m.drainedTotal.Load()
	return h
}

// close stops the reconnect loop, closes any live connection and fails
// subsequent calls with ErrClientClosed. Journaled registrations that
// never drained are dropped — their taints live on in this process but
// were never assigned Global IDs.
func (m *clusterMember) close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	rc := m.inner.Load()
	m.inner.Store(nil)
	m.seq++
	m.cond.Broadcast()
	m.mu.Unlock()
	close(m.done)
	if rc != nil {
		return rc.Close()
	}
	return nil
}
