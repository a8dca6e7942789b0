package taintmap

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// ErrOverloaded reports a request or connection shed by the server's
// admission control: the service is alive but at capacity, and the
// caller should back off, hedge to a replica, or fall into the
// journaled degraded path rather than retry immediately. It crosses the
// wire as a typed error-response marker (see serverErr), so errors.Is
// matches on the client side too.
var ErrOverloaded = errors.New("taintmap: server overloaded")

// admission is the server's request-level admission controller: a
// bounded concurrency gate with a bounded FIFO-ish wait queue. Up to
// maxActive requests execute; up to maxWait more wait their turn; any
// further request is shed with an ErrOverloaded reply instead of
// silently queueing behind an unbounded backlog. Shedding at the
// *request* level keeps the connection itself healthy — a brownout
// degrades throughput, not liveness.
type admission struct {
	mu        sync.Mutex
	cond      *sync.Cond
	active    int
	waiting   int
	maxActive int
	maxWait   int

	admitted atomic.Int64
	queued   atomic.Int64
	shed     atomic.Int64
}

func newAdmission(maxActive, maxWait int) *admission {
	a := &admission{maxActive: maxActive, maxWait: maxWait}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// admit blocks until a service slot is free, or reports false when the
// wait queue is full (the request must be shed).
func (a *admission) admit() bool {
	a.mu.Lock()
	if a.active < a.maxActive && a.waiting == 0 {
		a.active++
		a.mu.Unlock()
		a.admitted.Add(1)
		return true
	}
	if a.waiting >= a.maxWait {
		a.mu.Unlock()
		a.shed.Add(1)
		return false
	}
	a.waiting++
	a.queued.Add(1)
	for a.active >= a.maxActive {
		a.cond.Wait()
	}
	a.waiting--
	a.active++
	a.mu.Unlock()
	a.admitted.Add(1)
	return true
}

func (a *admission) release() {
	a.mu.Lock()
	a.active--
	a.mu.Unlock()
	a.cond.Signal()
}

// Acceptor abstracts a stream listener so the same Server runs over the
// simulated network and over real TCP (cmd/taintmapd adapts
// net.Listener).
type Acceptor interface {
	Accept() (io.ReadWriteCloser, error)
	Close() error
}

// Server runs the Taint Map service: it accepts connections and answers
// protocol requests against one shared Store.
type Server struct {
	store       *Store
	acc         Acceptor
	logf        func(format string, args ...any)
	readTimeout time.Duration
	maxConns    int
	node        *ClusterNode
	cost        func(op byte, items int)
	adm         *admission

	accOnce sync.Once // the acceptor closes once, via Shutdown or Close
	accErr  error

	mu      sync.Mutex
	conns   map[io.Closer]struct{}
	closed  bool
	done    chan struct{}
	started bool

	accepted  atomic.Int64
	refused   atomic.Int64
	shedConns atomic.Int64
	shedding  atomic.Int64 // brownout goroutines currently live
}

// ServerOption configures optional server hardening knobs.
type ServerOption func(*Server)

// WithReadTimeout bounds how long a connection may sit idle or dribble
// a single frame before the server drops it, so silent or wedged peers
// cannot pin server goroutines forever. Zero (the default) disables the
// timeout. Connections whose transport lacks SetReadDeadline are served
// without one.
func WithReadTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.readTimeout = d }
}

// WithMaxConns caps concurrently served connections. Arrivals over the
// cap enter brownout mode: a bounded pool of shedder goroutines answers
// their requests with ErrOverloaded for a short grace (so well-behaved
// clients learn to back off instead of seeing a silent close and
// re-dialing immediately), then closes them; arrivals beyond even the
// shedder pool are closed outright. Zero (the default) means unlimited.
func WithMaxConns(n int) ServerOption {
	return func(s *Server) { s.maxConns = n }
}

// WithAdmission bounds request-level concurrency: at most maxActive
// requests execute at once, at most maxWait more wait in queue, and
// anything beyond that is answered with ErrOverloaded instead of
// stalling its connection — load shedding with an explicit signal,
// replacing an unbounded implicit queue of blocked goroutines.
// maxActive <= 0 disables admission control (the default). maxWait < 0
// defaults to 4x maxActive.
func WithAdmission(maxActive, maxWait int) ServerOption {
	return func(s *Server) {
		if maxActive <= 0 {
			s.adm = nil
			return
		}
		if maxWait < 0 {
			maxWait = 4 * maxActive
		}
		s.adm = newAdmission(maxActive, maxWait)
	}
}

// WithClusterNode makes the server one member of a partitioned Taint
// Map: cluster ops (ring/join/replicate/repair) are answered, and every
// fresh registration is synchronously replicated to the node's ring
// successors before its reply is sent.
func WithClusterNode(n *ClusterNode) ServerOption {
	return func(s *Server) { s.node = n }
}

// WithServiceModel installs a per-request cost hook, called once per
// billed request with the request kind's upper-case letter ('R'
// register, 'B' register batch, 'L' lookup, 'M' lookup batch, 'P'
// replicate, 'W' repair; stats, ring and join requests are not billed)
// and the item count (blobs registered, ids looked up, entries
// adopted). The scaling benchmarks use it to model a fixed-capacity
// single-threaded server — this host has one CPU, so real parallel
// speedup cannot be measured directly; sleeping under a per-server
// mutex models N independent machines whose modeled service times
// overlap. Production servers never set it.
func WithServiceModel(cost func(op byte, items int)) ServerOption {
	return func(s *Server) { s.cost = cost }
}

// NewServer builds a server over the given acceptor. logf may be nil to
// disable logging.
func NewServer(store *Store, acc Acceptor, logf func(string, ...any), opts ...ServerOption) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		store: store,
		acc:   acc,
		logf:  logf,
		conns: make(map[io.Closer]struct{}),
		done:  make(chan struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Store returns the server's backing store (for stats inspection).
func (s *Server) Store() *Store { return s.store }

// Start launches the accept loop in a background goroutine.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.serve()
}

func (s *Server) serve() {
	defer close(s.done)
	var wg sync.WaitGroup
	for {
		conn, err := s.acc.Accept()
		if err != nil {
			break
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			break
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.mu.Unlock()
			// Brownout instead of a silent close: a refused client would
			// re-dial immediately, feeding the very storm the cap exists
			// to survive. A bounded pool of shedder goroutines answers
			// over-cap connections with ErrOverloaded for a short grace —
			// an explicit back-off signal — then closes them. Beyond even
			// the shedder pool, arrivals are closed outright.
			pool := int64(s.maxConns)
			if pool < 8 {
				pool = 8
			}
			if s.shedding.Load() >= pool {
				conn.Close()
				s.refused.Add(1)
				s.logf("taintmap: connection refused: %d connections at cap", s.maxConns)
				continue
			}
			s.shedding.Add(1)
			s.shedConns.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer s.shedding.Add(-1)
				shedConn(conn, brownoutGrace)
			}()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.accepted.Add(1)

		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := serveConn(connHost{store: s.store, node: s.node, cost: s.cost, adm: s.adm}, conn, s.readTimeout); err != nil {
				s.logf("taintmap: connection error: %v", err)
			}
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
	wg.Wait()
}

// brownoutGrace bounds how long one over-cap connection stays in
// brownout (answering ErrOverloaded) before being closed.
const brownoutGrace = 250 * time.Millisecond

// brownoutMaxFrames caps the requests one brownout connection may have
// answered before it is closed regardless of the grace.
const brownoutMaxFrames = 64

// shedConn serves one over-cap connection in brownout mode: every
// request is answered with an ErrOverloaded error response, payloads
// are discarded unexecuted, and the connection closes at the grace
// deadline, the frame cap or the first malformed frame, whichever
// lands first. On transports without read deadlines a silent
// peer can hold its shedder slot past the grace; the pool bound in
// serve() contains that.
func shedConn(conn io.ReadWriteCloser, grace time.Duration) {
	defer conn.Close()
	rd, _ := conn.(readDeadliner)
	deadline := time.Now().Add(grace)
	br := bufio.NewReaderSize(conn, 4<<10)
	bw := bufio.NewWriterSize(conn, 4<<10)
	overload := fmt.Appendf(nil, "%v: connection over cap", ErrOverloaded)
	for frames := 0; frames < brownoutMaxFrames && time.Now().Before(deadline); frames++ {
		if rd != nil {
			rd.SetReadDeadline(deadline)
		}
		_, tag, n, err := readRequestHeader(br)
		if err != nil {
			break
		}
		if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
			break
		}
		if writeFrame(bw, statusErr, tag, overload) != nil {
			break
		}
		if br.Buffered() == 0 {
			if bw.Flush() != nil {
				break
			}
		}
	}
	bw.Flush()
}

// ServerStats is a snapshot of the server's admission and shed
// counters, surfaced by taintmapd's -stats-every loop.
type ServerStats struct {
	ActiveConns  int   // connections currently in full service
	Accepted     int64 // connections accepted into full service
	ShedConns    int64 // connections browned out with ErrOverloaded replies
	RefusedConns int64 // connections closed outright (shedder pool full)
	AdmittedReqs int64 // requests admitted by the request gate
	QueuedReqs   int64 // admitted requests that first waited for a slot
	ShedReqs     int64 // requests answered ErrOverloaded by the gate
}

// Stats returns the server's admission/shed counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	st := ServerStats{ActiveConns: len(s.conns)}
	s.mu.Unlock()
	st.Accepted = s.accepted.Load()
	st.ShedConns = s.shedConns.Load()
	st.RefusedConns = s.refused.Load()
	if s.adm != nil {
		st.AdmittedReqs = s.adm.admitted.Load()
		st.QueuedReqs = s.adm.queued.Load()
		st.ShedReqs = s.adm.shed.Load()
	}
	return st
}

// Close stops accepting, closes live connections, and waits for the
// accept loop to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		// Only wait for the accept loop if one was ever started; a
		// repeated Close on a never-started server must not block on a
		// done channel nothing will ever close.
		started := s.started
		s.mu.Unlock()
		if started {
			<-s.done
		}
		return nil
	}
	s.closed = true
	started := s.started
	conns := make([]io.Closer, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	err := s.closeAcc()
	for _, c := range conns {
		c.Close()
	}
	if started {
		<-s.done
	}
	return err
}

// closeAcc closes the acceptor exactly once, remembering its result so
// Shutdown followed by Close reports a consistent error.
func (s *Server) closeAcc() error {
	s.accOnce.Do(func() { s.accErr = s.acc.Close() })
	return s.accErr
}

// Shutdown drains the server gracefully: it stops accepting, then gives
// in-flight connections up to grace to finish their current requests
// and disconnect before forcing the remainder closed (Close). Servers
// fronted by reconnecting clients should prefer this over Close so a
// restart never cuts a request mid-reply.
func (s *Server) Shutdown(grace time.Duration) error {
	s.closeAcc()
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		n := len(s.conns)
		closed := s.closed
		s.mu.Unlock()
		if n == 0 || closed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return s.Close()
}

// simAcceptor adapts a netsim.Listener to Acceptor.
type simAcceptor struct {
	l *netsim.Listener
}

func (a simAcceptor) Accept() (io.ReadWriteCloser, error) { return a.l.Accept() }
func (a simAcceptor) Close() error                        { return a.l.Close() }

// StartSimServer binds a Taint Map server on the simulated network at
// addr and starts it.
func StartSimServer(net *netsim.Network, addr string) (*Server, error) {
	l, err := net.Listen(addr)
	if err != nil {
		return nil, err
	}
	srv := NewServer(NewStore(), simAcceptor{l: l}, log.Printf)
	srv.Start()
	return srv, nil
}

// simMemberAddr is the canonical simulated address of cluster partition
// part: host "tm<part>" (distinct per member, so the netsim fault plane
// can partition one server away from everything else).
func simMemberAddr(part uint32) string { return fmt.Sprintf("tm%d:1", part) }

// StartSimClusterMember starts (or restarts) one member of a simulated
// cluster: a listener at the member's ring address, a ClusterNode that
// dials peers from the member's own host (so host-level partition cuts
// apply to replication traffic too), and a server over store.
func StartSimClusterMember(network *netsim.Network, ring *Ring, part uint32, store *Store, opts ...ServerOption) (*Server, *ClusterNode, error) {
	self, ok := ring.Member(part)
	if !ok {
		return nil, nil, fmt.Errorf("taintmap: partition %d not in ring", part)
	}
	node, err := NewClusterNode(self, ring.Members(), ring.RF, func(addr string) (io.ReadWriteCloser, error) {
		return network.DialFrom(fmt.Sprintf("tm%d:peer", part), addr)
	})
	if err != nil {
		return nil, nil, err
	}
	l, err := network.Listen(self.Addr)
	if err != nil {
		return nil, nil, err
	}
	srv := NewServer(store, simAcceptor{l: l}, nil, append([]ServerOption{WithClusterNode(node)}, opts...)...)
	srv.Start()
	return srv, node, nil
}

// StartSimCluster brings up an n-member cluster on the simulated
// network at addresses tm0:1 .. tm<n-1>:1, partition i on member i.
func StartSimCluster(network *netsim.Network, n, rf int, opts ...ServerOption) ([]*Server, *Ring, error) {
	members := make([]Member, n)
	for i := range members {
		members[i] = Member{Part: uint32(i), Addr: simMemberAddr(uint32(i))}
	}
	ring, err := NewRing(1, rf, members)
	if err != nil {
		return nil, nil, err
	}
	servers := make([]*Server, n)
	for i := range members {
		store, err := NewPartitionStore(uint32(i))
		if err != nil {
			return nil, nil, err
		}
		srv, _, err := StartSimClusterMember(network, ring, uint32(i), store, opts...)
		if err != nil {
			for _, s := range servers[:i] {
				s.Close()
			}
			return nil, nil, err
		}
		servers[i] = srv
	}
	return servers, ring, nil
}

// DialSimCluster connects a ClusterClient to a simulated cluster from
// the given local host.
func DialSimCluster(network *netsim.Network, local string, ring *Ring, tree *taint.Tree, opt ClusterOptions) (*ClusterClient, error) {
	return NewClusterClient(ring, func(addr string) (io.ReadWriteCloser, error) {
		return network.DialFrom(local, addr)
	}, tree, opt)
}

// DialSim connects a RemoteClient to a Taint Map server on the simulated
// network, resolving taints into tree.
func DialSim(net *netsim.Network, addr string, tree *taint.Tree) (*RemoteClient, error) {
	conn, err := net.Dial(addr)
	if err != nil {
		return nil, err
	}
	return NewRemoteClient(conn, tree), nil
}
