package dista

import (
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/instrument"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// Clean-path benchmarks backing BENCH_5.json: untainted traffic through
// an instrumented endpoint must cost a small constant over the plain
// netsim copy loop and allocate nothing per write.
func BenchmarkCleanPath(b *testing.B) {
	const size = 64 << 10

	// NetsimCopy is the uninstrumented floor: a raw []byte write with a
	// persistent goroutine draining the peer. Everything the bypass adds
	// is measured against this.
	b.Run("NetsimCopy", func(b *testing.B) {
		net := netsim.New()
		cs, cr := net.Pipe()
		go drainRaw(cr)
		payload := make([]byte, size)
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cs.Write(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		cs.Close()
	})

	// PassthroughWrite is the same shape with the full dista endpoint in
	// front: clean gate, frame header, two socket writes. The allocs/op
	// figure is the pool-leak check — it must be 0.
	b.Run("PassthroughWrite", func(b *testing.B) {
		net := netsim.New()
		store := taintmap.NewStore()
		agent := benchAgent("s", store)
		cs, cr := net.Pipe()
		go drainRaw(cr)
		sender := instrument.NewEndpoint(agent, cs)
		payload := taint.MakeBytes(size) // shadowed: exercises the epoch memo
		// Warm up the endpoint scratch and the pipe's backing array so
		// steady state is what gets measured.
		for i := 0; i < 4; i++ {
			if err := sender.Write(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sender.Write(payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		cs.Close()
	})
}

// benchAgent builds a dista-mode agent on a shared local Taint Map.
func benchAgent(name string, store *taintmap.Store) *tracker.Agent {
	a := tracker.New(name, tracker.ModeDista)
	return tracker.New(name, tracker.ModeDista,
		tracker.WithTaintMap(taintmap.NewLocalClient(store, a.Tree())))
}

// drainRaw reads and discards the peer's bytes until the stream closes,
// allocation-free (it runs inside -benchmem's accounting).
func drainRaw(c *netsim.Conn) {
	buf := make([]byte, 64<<10)
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
	}
}
