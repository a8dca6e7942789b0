package taintmap

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dista/internal/bench/hist"
	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// ClusterClient is a Client over a partitioned, replicated Taint Map:
// one handle that makes N taintmapd instances look like the single
// logical map the rest of the tracker was written against.
//
// Routing is stateless on both axes. Registrations hash the serialized
// taint (the blobs are content-addressed, so the hash is stable across
// nodes and retries) onto the ring to find the owning partition;
// lookups read the partition index straight out of the id's high bits
// (see idspace.go) and may be served by the owner or any ring successor
// replicating it — the client rotates across them to spread load, falls
// through on a replica that does not (yet) hold the id, and pushes the
// entries back to such replicas once resolved (read-repair).
//
// Every member is fronted by its own ResilientClient, so the PR 3
// failure machinery applies per partition: a dead member's traffic
// journals against a partition-local store (provisional ids carry the
// partition that will own them) and drains when the member returns,
// while the other partitions stay healthy. A membership change is just
// a new ring: in-flight registrations complete against the members that
// accepted them, and only future registrations re-route.
type ClusterClient struct {
	tree *taint.Tree
	dial func(addr string) (io.ReadWriteCloser, error)
	opt  ClusterOptions
	memo *cache // shared by every member client

	ring atomic.Pointer[Ring]

	// table is the lock-free member snapshot the request paths route
	// through, indexed by partition. Rebuilt from members under mu on
	// every membership change; readers only Load. Keeping the hot path
	// off mu matters: every miss resolves its owner handle, and eight
	// workload goroutines serializing on a mutex just to index a
	// read-mostly map measurably dents register throughput.
	table atomic.Pointer[[MaxPartitions]*clusterMember]

	mu      sync.Mutex
	members map[uint32]*clusterMember
	closed  bool

	rr       atomic.Uint32 // lookup replica rotation
	repaired atomic.Int64  // entries pushed back to stale replicas

	// budget is the shared retry budget: one bucket gating every
	// member's reconnect dials and this layer's hedges, so a brownout
	// cannot multiply into a cluster-wide retry storm.
	budget *Budget
	hedge  hist.Hist

	hedges       atomic.Int64 // hedge attempts launched
	hedgeWins    atomic.Int64 // lookups won by the hedged attempt
	budgetDenied atomic.Int64 // hedges suppressed by the empty budget
}

var _ Client = (*ClusterClient)(nil)

// ClusterOptions tunes a ClusterClient.
type ClusterOptions struct {
	// Resilient configures each member's resilience layer (defaults as
	// in ResilientOptions).
	Resilient ResilientOptions

	// HedgeDelay is the initial replica-lookup hedge delay: how long the
	// first attempt may run before the next replica is raced against it.
	// Once the latency tracker has warmed up, the observed p99 replaces
	// this value, so it only matters for the first few dozen lookups.
	// Zero means the 20ms default; negative disables hedging entirely
	// and restores sequential replica rotation.
	HedgeDelay time.Duration

	// OpTimeout bounds one whole lookup operation — all replica
	// attempts and hedges together. Zero means no operation deadline
	// (each attempt is still bounded by Resilient.CallTimeout).
	OpTimeout time.Duration

	// BudgetRate and BudgetBurst configure the shared retry budget in
	// tokens per second and bucket capacity. Reconnect dials and hedges
	// each cost one token; first attempts are free. Zero means the
	// defaults (50/s, burst 100); negative disables budgeting.
	BudgetRate  float64
	BudgetBurst float64
}

// withClusterDefaults fills the zero values in.
func (o ClusterOptions) withClusterDefaults() ClusterOptions {
	if o.HedgeDelay == 0 {
		o.HedgeDelay = 20 * time.Millisecond
	}
	if o.BudgetRate == 0 {
		o.BudgetRate = 50
	}
	if o.BudgetBurst == 0 {
		o.BudgetBurst = 100
	}
	if o.Resilient.clk == nil {
		o.Resilient.clk = netsim.WallClock()
	}
	return o
}

// DialClusterAddrs builds a Client from a flat endpoint list — the form
// a deployment writes in its agent args, where the addresses are known
// but the partition layout is the cluster's own business. One address
// is the degenerate deployment and gets the plain single-server
// resilient client (no routing layer to pay for). Several addresses
// bootstrap a ClusterClient: the ring (partition indices, replication
// factor, any members missing from the list) is fetched from the first
// address that answers, so the list only has to name enough live
// members to find the cluster, not describe it.
func DialClusterAddrs(addrs []string, dial func(addr string) (io.ReadWriteCloser, error), tree *taint.Tree, opt ClusterOptions) (Client, error) {
	switch len(addrs) {
	case 0:
		return nil, errors.New("taintmap: no taint map addresses")
	case 1:
		addr := addrs[0]
		opt = opt.withClusterDefaults()
		ropt := opt.Resilient
		ropt.budget = newBudgetClock(opt.BudgetRate, opt.BudgetBurst, ropt.clk)
		return NewResilientClient(func() (io.ReadWriteCloser, error) { return dial(addr) }, tree, ropt), nil
	}
	var lastErr error
	for _, addr := range addrs {
		conn, err := dial(addr)
		if err != nil {
			lastErr = err
			continue
		}
		rc := NewRemoteClient(conn, tree)
		reply, err := rc.call(opRing, nil)
		rc.Close()
		if err != nil {
			lastErr = err
			continue
		}
		ring, err := parseRing(reply)
		if err != nil {
			lastErr = err
			continue
		}
		return NewClusterClient(ring, dial, tree, opt)
	}
	return nil, fmt.Errorf("taintmap: cluster bootstrap from %d addresses: %w", len(addrs), lastErr)
}

// clusterMember is one ring member's client handle.
type clusterMember struct {
	part uint32
	addr string
	rc   *ResilientClient
}

// NewClusterClient builds a client over the given membership. dial
// opens a connection to a member address; it is called per member and
// again on every reconnect.
func NewClusterClient(ring *Ring, dial func(addr string) (io.ReadWriteCloser, error), tree *taint.Tree, opt ClusterOptions) (*ClusterClient, error) {
	opt = opt.withClusterDefaults()
	c := &ClusterClient{
		tree:    tree,
		dial:    dial,
		opt:     opt,
		memo:    &cache{},
		members: make(map[uint32]*clusterMember),
	}
	c.budget = newBudgetClock(opt.BudgetRate, opt.BudgetBurst, opt.Resilient.clk)
	c.ring.Store(ring)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range ring.Members() {
		if _, err := c.addMemberLocked(m); err != nil {
			return nil, err
		}
	}
	c.publishLocked()
	return c, nil
}

// publishLocked rebuilds the lock-free member table from c.members.
// Caller holds c.mu.
func (c *ClusterClient) publishLocked() {
	var t [MaxPartitions]*clusterMember
	for part, cm := range c.members {
		t[part] = cm
	}
	c.table.Store(&t)
}

// addMemberLocked creates the client handle for one member: a
// ResilientClient sharing the cluster-wide memo, journaling against a
// store of the member's own partition. Caller holds c.mu.
func (c *ClusterClient) addMemberLocked(m Member) (*clusterMember, error) {
	local, err := NewPartitionStore(m.Part)
	if err != nil {
		return nil, err
	}
	ropt := c.opt.Resilient
	ropt.memo = c.memo
	ropt.local = local
	ropt.budget = c.budget
	addr := m.Addr
	rc := NewResilientClient(func() (io.ReadWriteCloser, error) { return c.dial(addr) }, c.tree, ropt)
	cm := &clusterMember{part: m.Part, addr: m.Addr, rc: rc}
	c.members[m.Part] = cm
	return cm, nil
}

// member returns the handle for a partition, nil when the partition has
// no member (e.g. ids minted under an older ring by a departed server —
// the caller falls through to the partition's replicas).
func (c *ClusterClient) member(part uint32) *clusterMember {
	if part >= MaxPartitions {
		return nil
	}
	return c.table.Load()[part]
}

// Ring returns the membership snapshot the client is routing on.
func (c *ClusterClient) Ring() *Ring { return c.ring.Load() }

// Repaired reports how many entries this client pushed back to stale
// replicas.
func (c *ClusterClient) Repaired() int64 { return c.repaired.Load() }

// UpdateRing installs a newer membership snapshot: handles are created
// for new members, re-dialed for re-addressed ones, and kept for
// departed ones (their partition's ids stay resolvable and any
// journaled registrations still drain if the server returns). Rings
// with a stale epoch are ignored.
func (c *ClusterClient) UpdateRing(r *Ring) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClientClosed
	}
	old := c.ring.Load()
	if r.Epoch < old.Epoch {
		return nil
	}
	for _, m := range r.Members() {
		cm := c.members[m.Part]
		if cm == nil {
			if _, err := c.addMemberLocked(m); err != nil {
				return err
			}
			continue
		}
		if cm.addr != m.Addr {
			cm.rc.Close()
			if _, err := c.addMemberLocked(m); err != nil {
				return err
			}
		}
	}
	c.publishLocked()
	c.ring.Store(r)
	return nil
}

// Refresh fetches the ring from the first member that answers and
// installs it — how a client learns that a server joined.
func (c *ClusterClient) Refresh() (*Ring, error) {
	c.mu.Lock()
	handles := make([]*clusterMember, 0, len(c.members))
	for _, cm := range c.members {
		handles = append(handles, cm)
	}
	c.mu.Unlock()
	var lastErr error = ErrDegraded
	for _, cm := range handles {
		reply, err := cm.rc.rawCall(opRing, nil)
		if err != nil {
			lastErr = err
			continue
		}
		r, err := parseRing(reply)
		if err != nil {
			lastErr = err
			continue
		}
		if err := c.UpdateRing(r); err != nil {
			return nil, err
		}
		return c.ring.Load(), nil
	}
	return nil, fmt.Errorf("taintmap: ring refresh: %w", lastErr)
}

// Register implements Client: marshal once, route by content hash to
// the owning partition, register there (journaling locally if that
// member is down).
func (c *ClusterClient) Register(t taint.Taint) (uint32, error) {
	if t.Empty() {
		return 0, nil
	}
	if id := t.GlobalID(); id != 0 {
		return id, nil
	}
	blob, err := taint.MarshalTaint(t)
	if err != nil {
		return 0, err
	}
	cm := c.member(c.ring.Load().OwnerOfBlob(blob))
	if cm == nil {
		return 0, fmt.Errorf("%w: no member for owner partition", ErrDegraded)
	}
	id, err := cm.rc.registerMarshaled(t, blob)
	if err != nil && errors.Is(err, ErrOverloaded) {
		// The owner is shedding load, not down: fall into that
		// partition's journaled degraded mode instead of failing the
		// caller — the provisional id remaps when the drain replays it.
		return cm.rc.journalFallback(t, blob)
	}
	return id, err
}

// Lookup implements Client: route by the id's partition bits, rotating
// across the partition's replicas; a replica that does not hold the id
// falls through to the next and is healed afterwards by read-repair.
func (c *ClusterClient) Lookup(id uint32) (taint.Taint, error) {
	if id == 0 {
		return taint.Taint{}, nil
	}
	if t, ok := c.memo.get(id); ok {
		return t, nil
	}
	part := PartitionOf(id)
	if IsProvisional(id) {
		// Provisional ids never cross the wire: resolve through the
		// member whose journal minted them.
		cm := c.member(part)
		if cm == nil {
			return taint.Taint{}, fmt.Errorf("%w: provisional id %d of unknown member", ErrDegraded, id)
		}
		return cm.rc.Lookup(id)
	}
	cms := c.replicaOrder(part)
	if len(cms) == 0 {
		return taint.Taint{}, fmt.Errorf("%w: no member for partition %d", ErrDegraded, part)
	}
	if len(cms) == 1 || c.opt.HedgeDelay < 0 {
		// Single replica, or hedging disabled: sequential rotation with
		// each member's full resilience machinery, as before hedging.
		var stale []*clusterMember
		lastErr := error(ErrDegraded)
		for _, cm := range cms {
			t, err := cm.rc.Lookup(id)
			if err == nil {
				c.repairTo(stale, []uint32{id}, []taint.Taint{t})
				return t, nil
			}
			lastErr = err
			if errors.Is(err, ErrUnknownGlobalID) {
				// This replica is missing the entry, not down: remember
				// it for read-repair once another replica resolves it.
				stale = append(stale, cm)
			}
		}
		return taint.Taint{}, lastErr
	}
	var got atomic.Pointer[taint.Taint]
	stale, err := c.hedgedCall(cms, func(cm *clusterMember, deadline time.Time) error {
		t, e := cm.rc.lookupAttempt(id, deadline)
		if e == nil {
			got.Store(&t)
		}
		return e
	})
	if err != nil {
		return taint.Taint{}, err
	}
	t := *got.Load()
	c.repairTo(stale, []uint32{id}, []taint.Taint{t})
	return t, nil
}

// replicaOrder returns the live member handles of a partition's replica
// set, rotated so successive lookups start on different replicas.
func (c *ClusterClient) replicaOrder(part uint32) []*clusterMember {
	reps := c.ring.Load().Replicas(part)
	start := int(c.rr.Add(1)) % len(reps)
	cms := make([]*clusterMember, 0, len(reps))
	for i := range reps {
		if cm := c.member(reps[(start+i)%len(reps)]); cm != nil {
			cms = append(cms, cm)
		}
	}
	return cms
}

// hedgeWarmup is the observation count below which the latency
// histogram is considered too sparse to trust and the configured
// initial hedge delay is used instead.
const hedgeWarmup = 32

// hedgeDelay is the delay before a lookup's first attempt gets raced by
// the next replica: the tracked p99 once warm, the configured initial
// delay before that.
func (c *ClusterClient) hedgeDelay() time.Duration {
	if c.hedge.Count() >= hedgeWarmup {
		if d, ok := c.hedge.Quantile(0.99); ok {
			return d
		}
	}
	return c.opt.HedgeDelay
}

// hedgedCall runs one fail-fast attempt (the call closure) against the
// replicas in order, hedging: the first attempt runs alone until the
// tracked p99 elapses, then — if the retry budget grants a token — the
// next replica is raced against it and the first success wins. A
// *failed* attempt falls through to the next replica immediately and
// for free; that is rotation, not hedging, and charging it would let a
// dead replica drain the budget. Losing attempts are abandoned (their
// goroutines park on the member's own call timeout and deliver into a
// buffered channel), and replicas that answered ErrUnknownGlobalID are
// returned for read-repair.
func (c *ClusterClient) hedgedCall(cms []*clusterMember, call func(cm *clusterMember, deadline time.Time) error) (stale []*clusterMember, err error) {
	var deadline time.Time
	if c.opt.OpTimeout > 0 {
		deadline = time.Now().Add(c.opt.OpTimeout)
	}
	type outcome struct {
		cm     *clusterMember
		err    error
		took   time.Duration
		hedged bool
	}
	results := make(chan outcome, len(cms))
	next, inflight := 0, 0
	launch := func(hedged bool) {
		cm := cms[next]
		next++
		inflight++
		go func() {
			start := time.Now()
			e := call(cm, deadline)
			results <- outcome{cm: cm, err: e, took: time.Since(start), hedged: hedged}
		}()
	}
	launch(false)
	var timerC <-chan time.Time
	if next < len(cms) {
		timer := time.NewTimer(c.hedgeDelay())
		defer timer.Stop()
		timerC = timer.C
	}
	lastErr := error(ErrDegraded)
	for inflight > 0 {
		select {
		case out := <-results:
			inflight--
			if out.err == nil {
				c.hedge.Observe(out.took)
				if out.hedged {
					c.hedgeWins.Add(1)
				}
				return stale, nil
			}
			lastErr = out.err
			if errors.Is(out.err, ErrUnknownGlobalID) {
				stale = append(stale, out.cm)
			}
			if next < len(cms) {
				launch(false)
			}
		case <-timerC:
			timerC = nil
			if next < len(cms) {
				if c.budget.TryTake(1) {
					c.hedges.Add(1)
					launch(true)
				} else {
					c.budgetDenied.Add(1)
				}
			}
		}
	}
	return stale, lastErr
}

// RegisterBatch implements Client: pending taints are marshaled once,
// grouped by owning partition, and each group goes to its owner as one
// batch (so a cluster-wide batch costs one round trip per partition,
// not per taint).
func (c *ClusterClient) RegisterBatch(ts []taint.Taint) ([]uint32, error) {
	ids, pending, posOf := collectRegister(ts)
	if len(pending) == 0 {
		return ids, nil
	}
	blobs, err := marshalAll(pending)
	if err != nil {
		return nil, err
	}
	ring := c.ring.Load()
	groups := make(map[uint32][]int) // owner partition -> indices into pending
	for i, blob := range blobs {
		part := ring.OwnerOfBlob(blob)
		groups[part] = append(groups[part], i)
	}
	for part, idxs := range groups {
		cm := c.member(part)
		if cm == nil {
			return nil, fmt.Errorf("%w: no member for owner partition %d", ErrDegraded, part)
		}
		gts := make([]taint.Taint, len(idxs))
		gblobs := make([][]byte, len(idxs))
		for k, i := range idxs {
			gts[k] = pending[i]
			gblobs[k] = blobs[i]
		}
		got, err := cm.rc.registerPending(gts, gblobs)
		if err != nil && errors.Is(err, ErrOverloaded) {
			// The group's owner is shedding: journal the group into that
			// partition's degraded mode and hand out provisional ids.
			got = make([]uint32, len(gts))
			for k := range gts {
				if got[k], err = cm.rc.journalFallback(gts[k], gblobs[k]); err != nil {
					return nil, err
				}
			}
		} else if err != nil {
			return nil, err
		}
		for k, i := range idxs {
			for _, pos := range posOf[pending[i]] {
				ids[pos] = got[k]
			}
		}
	}
	return ids, nil
}

// LookupBatch implements Client: memo misses are grouped by partition
// and resolved per group against the partition's replicas, with the
// same rotation, fall-through and read-repair as single lookups.
func (c *ClusterClient) LookupBatch(ids []uint32) ([]taint.Taint, error) {
	ts, missing := c.memo.splitBatch(ids)
	if len(missing) == 0 {
		return ts, nil
	}
	groups := make(map[uint32][]uint32)
	provGroups := make(map[uint32][]uint32)
	for _, id := range missing {
		if IsProvisional(id) {
			provGroups[PartitionOf(id)] = append(provGroups[PartitionOf(id)], id)
		} else {
			groups[PartitionOf(id)] = append(groups[PartitionOf(id)], id)
		}
	}
	ring := c.ring.Load()
	for part, group := range groups {
		if err := c.lookupGroup(ring, part, group); err != nil {
			return nil, err
		}
	}
	for part, group := range provGroups {
		// Provisional ids resolve via the minting member's journal; they
		// never reach the wire or the replica set.
		cm := c.member(part)
		if cm == nil {
			return nil, fmt.Errorf("%w: provisional ids of unknown member", ErrDegraded)
		}
		if _, err := cm.rc.LookupBatch(group); err != nil {
			return nil, err
		}
	}
	// Every missing id is in the memo now; fill the unresolved slots.
	for i, id := range ids {
		if id != 0 && ts[i].Empty() {
			t, ok := c.memo.get(id)
			if !ok {
				return nil, fmt.Errorf("taintmap: id %d lost between lookup and fill", id)
			}
			ts[i] = t
		}
	}
	return ts, nil
}

// lookupGroup resolves one partition's (non-provisional) ids against
// its replicas and read-repairs any replica observed missing them.
func (c *ClusterClient) lookupGroup(ring *Ring, part uint32, group []uint32) error {
	cms := c.replicaOrder(part)
	if len(cms) == 0 {
		return fmt.Errorf("%w: no member for partition %d", ErrDegraded, part)
	}
	if len(cms) == 1 || c.opt.HedgeDelay < 0 {
		var stale []*clusterMember
		lastErr := error(ErrDegraded)
		for _, cm := range cms {
			got, err := cm.rc.LookupBatch(group)
			if err == nil {
				c.repairTo(stale, group, got)
				return nil
			}
			lastErr = err
			if errors.Is(err, ErrUnknownGlobalID) {
				stale = append(stale, cm)
			}
		}
		return lastErr
	}
	stale, err := c.hedgedCall(cms, func(cm *clusterMember, deadline time.Time) error {
		return cm.rc.lookupBatchAttempt(group, deadline)
	})
	if err != nil {
		return err
	}
	if len(stale) > 0 {
		// The attempt path resolves into the shared memo rather than
		// returning the taints; refetch them to build the repair batch.
		ts := make([]taint.Taint, len(group))
		for i, id := range group {
			t, ok := c.memo.get(id)
			if !ok {
				return nil // raced an eviction; leave repair to a later reader
			}
			ts[i] = t
		}
		c.repairTo(stale, group, ts)
	}
	return nil
}

// repairTo pushes resolved (id, taint) entries to replicas that were
// observed missing them. Best-effort: a failed push leaves the replica
// for the next reader (or the owner's hinted entries) to heal.
func (c *ClusterClient) repairTo(stale []*clusterMember, ids []uint32, ts []taint.Taint) {
	if len(stale) == 0 {
		return
	}
	blobs := make([][]byte, 0, len(ts))
	okIDs := make([]uint32, 0, len(ts))
	for i, t := range ts {
		blob, err := taint.MarshalTaint(t)
		if err != nil {
			continue
		}
		okIDs = append(okIDs, ids[i])
		blobs = append(blobs, blob)
	}
	if len(okIDs) == 0 {
		return
	}
	payload := appendEntries(nil, okIDs, blobs)
	for _, cm := range stale {
		if _, err := cm.rc.rawCall(opRepair, payload); err == nil {
			c.repaired.Add(int64(len(okIDs)))
		}
	}
}

// Healths reports each member's resilience state, keyed by partition.
func (c *ClusterClient) Healths() map[uint32]Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint32]Health, len(c.members))
	for part, cm := range c.members {
		out[part] = cm.rc.Health()
	}
	return out
}

// ClusterHealth is a cluster-wide snapshot: per-member resilience
// state plus the hedge, budget and degradation gauges that only exist
// at this layer.
type ClusterHealth struct {
	Members            map[uint32]Health
	DegradedPartitions []uint32 // partitions journaling locally (breaker tripped)

	Hedges       int64         // hedge attempts launched
	HedgeWins    int64         // lookups won by the hedged attempt
	BudgetDenied int64         // hedges suppressed by an empty budget
	BudgetTokens float64       // tokens currently in the shared budget
	HedgeDelay   time.Duration // delay the next hedge would use
	Repaired     int64         // entries pushed back to stale replicas
}

// Health reports the cluster client's current state.
func (c *ClusterClient) Health() ClusterHealth {
	h := ClusterHealth{
		Members:      c.Healths(),
		Hedges:       c.hedges.Load(),
		HedgeWins:    c.hedgeWins.Load(),
		BudgetDenied: c.budgetDenied.Load(),
		BudgetTokens: c.budget.Tokens(),
		HedgeDelay:   c.hedgeDelay(),
		Repaired:     c.repaired.Load(),
	}
	for part, mh := range h.Members {
		if mh.Degraded {
			h.DegradedPartitions = append(h.DegradedPartitions, part)
		}
	}
	sort.Slice(h.DegradedPartitions, func(i, j int) bool {
		return h.DegradedPartitions[i] < h.DegradedPartitions[j]
	})
	return h
}

// Close implements Client: it closes every member handle.
func (c *ClusterClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	handles := make([]*clusterMember, 0, len(c.members))
	for _, cm := range c.members {
		handles = append(handles, cm)
	}
	c.mu.Unlock()
	var first error
	for _, cm := range handles {
		if err := cm.rc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
