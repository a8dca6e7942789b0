package taintmap

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dista/internal/core/taint"
	"dista/internal/netsim"
)

// TestServerCloseTwiceNeverStarted is the regression test for the Close
// deadlock: a second Close on a server whose Start was never called
// used to block forever on the done channel.
func TestServerCloseTwiceNeverStarted(t *testing.T) {
	n := netsim.New()
	l, err := n.Listen("tm:1")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewStore(), simAcceptor{l: l}, nil)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	finished := make(chan struct{})
	go func() {
		srv.Close()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("second Close on a never-started server deadlocked")
	}
}

// TestConcurrentClients hammers one shared RemoteClient and one shared
// LocalClient from 8 goroutines with overlapping register/lookup
// batches, then asserts the global invariants: every occurrence of a
// blob observed the same id, and the store allocated each distinct blob
// exactly one id. Run under -race this also exercises the sharded
// store, the lock-free page table, the mux demultiplexer and the
// singleflight table.
func TestConcurrentClients(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:7")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	remoteTree := taint.NewTree()
	remote, err := DialSim(n, "tm:7", remoteTree)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	localTree := taint.NewTree()
	local := NewLocalClient(srv.Store(), localTree)

	const goroutines = 8
	const rounds = 60
	const distinct = 24 // logical taints shared by all goroutines

	var mu sync.Mutex
	idOf := make(map[string]uint32) // marshalled blob -> observed id

	record := func(ts []taint.Taint, ids []uint32) error {
		for i, tt := range ts {
			blob, err := taint.MarshalTaint(tt)
			if err != nil {
				return err
			}
			mu.Lock()
			prev, seen := idOf[string(blob)]
			if !seen {
				idOf[string(blob)] = ids[i]
			}
			mu.Unlock()
			if seen && prev != ids[i] {
				return fmt.Errorf("blob got ids %d and %d", prev, ids[i])
			}
			if ids[i] == 0 {
				return fmt.Errorf("tainted value got id 0")
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var client Client = remote
			tree := remoteTree
			if g%2 == 1 {
				client, tree = local, localTree
			}
			for r := 0; r < rounds; r++ {
				// Overlapping windows of the shared logical taints; each
				// goroutine builds them in its client's tree.
				ts := make([]taint.Taint, 0, 6)
				for k := 0; k < 6; k++ {
					ts = append(ts, tree.NewSource(
						fmt.Sprintf("shared-%d", (g+r+k)%distinct), "common:1"))
				}
				ids, err := client.RegisterBatch(ts)
				if err != nil {
					errs <- err
					return
				}
				if err := record(ts, ids); err != nil {
					errs <- err
					return
				}
				got, err := client.LookupBatch(ids)
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if !taint.SameSet(got[i], ts[i]) {
						errs <- fmt.Errorf("lookup of id %d returned wrong taint", ids[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := srv.Store().Stats().GlobalTaints; got != len(idOf) {
		t.Fatalf("store allocated %d ids for %d distinct blobs", got, len(idOf))
	}
	if len(idOf) != distinct {
		t.Fatalf("observed %d distinct blobs, want %d", len(idOf), distinct)
	}
}

// TestRegisterBatchChunksOversized registers a batch whose encoded
// payload exceeds maxFrame (1 MiB): the client must split it into
// several frames transparently instead of failing in writeFrame.
func TestRegisterBatchChunksOversized(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:7")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Long source names make each blob large, so a modest count of
	// distinct taints overflows one frame.
	build := func(tree *taint.Tree) ([]taint.Taint, int) {
		filler := strings.Repeat("x", 2048)
		var ts []taint.Taint
		total := 4
		for i := 0; total <= 3*maxFrame/2; i++ {
			tt := tree.NewSource(fmt.Sprintf("big-%d-%s", i, filler), "chunk:1")
			blob, err := taint.MarshalTaint(tt)
			if err != nil {
				t.Fatal(err)
			}
			total += 4 + len(blob)
			ts = append(ts, tt)
		}
		return ts, total
	}

	t.Run("Mux", func(t *testing.T) {
		tree := taint.NewTree()
		client, err := DialSim(n, "tm:7", tree)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		ts, total := build(tree)
		if total <= maxFrame {
			t.Fatalf("test batch encodes to %d bytes, need > %d", total, maxFrame)
		}
		ids, err := client.RegisterBatch(ts)
		if err != nil {
			t.Fatalf("oversized batch: %v", err)
		}
		seen := make(map[uint32]bool)
		for i, id := range ids {
			if id == 0 || seen[id] {
				t.Fatalf("id[%d] = %d (zero or duplicate)", i, id)
			}
			seen[id] = true
		}
		// Round-trip through a fresh client to prove the server got
		// every blob intact.
		checkTree := taint.NewTree()
		check, err := DialSim(n, "tm:7", checkTree)
		if err != nil {
			t.Fatal(err)
		}
		defer check.Close()
		got, err := check.LookupBatch(ids)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !taint.SameSet(got[i], ts[i]) {
				t.Fatalf("taint %d did not survive the chunked round trip", i)
			}
		}
	})
}

// TestSplitIDChunks covers the id-side chunker without paying for a
// quarter-million registrations.
func TestSplitIDChunks(t *testing.T) {
	ids := make([]uint32, maxIDsPerFrame*2+17)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	chunks := splitIDChunks(ids)
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(chunks))
	}
	var back []uint32
	for _, c := range chunks {
		if len(c) > maxIDsPerFrame {
			t.Fatalf("chunk of %d ids exceeds frame limit", len(c))
		}
		back = append(back, c...)
	}
	if len(back) != len(ids) {
		t.Fatalf("chunks cover %d of %d ids", len(back), len(ids))
	}
	for i := range back {
		if back[i] != ids[i] {
			t.Fatalf("id %d reordered", i)
		}
	}
}

// TestRegisterCoalescing floods one RemoteClient with concurrent
// single-taint Registers of distinct taints. The writer goroutine
// folds simultaneous 'r' frames into one tagged batch frame and the
// demultiplexer fans the bare id-list reply back out to the member
// calls, so this test covers the coalescing slicing that RegisterBatch
// (which builds its own batches) never reaches. Distinct sources keep
// the singleflight table and the memo cache out of the way.
func TestRegisterCoalescing(t *testing.T) {
	n := netsim.New()
	srv, err := StartSimServer(n, "tm:9")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tree := taint.NewTree()
	client, err := DialSim(n, "tm:9", tree)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const goroutines = 16
	const perG = 50
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	ids := make([][]uint32, goroutines)
	taints := make([][]taint.Taint, goroutines)
	for g := 0; g < goroutines; g++ {
		taints[g] = make([]taint.Taint, perG)
		ids[g] = make([]uint32, perG)
		for i := range taints[g] {
			taints[g][i] = tree.NewSource(
				fmt.Sprintf("coalesce-%d-%d", g, i), "burst:1")
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i, tt := range taints[g] {
				id, err := client.Register(tt)
				if err != nil {
					errs <- err
					return
				}
				ids[g][i] = id
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	seen := make(map[uint32]bool)
	for g := range ids {
		for i, id := range ids[g] {
			if id == 0 {
				t.Fatalf("goroutine %d taint %d got id 0", g, i)
			}
			if seen[id] {
				t.Fatalf("id %d assigned to two distinct taints", id)
			}
			seen[id] = true
			got, err := client.Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			if !taint.SameSet(got, taints[g][i]) {
				t.Fatalf("lookup of id %d returned wrong taint", id)
			}
		}
	}
	if got := srv.Store().Stats().GlobalTaints; got != goroutines*perG {
		t.Fatalf("store allocated %d ids, want %d", got, goroutines*perG)
	}
}
