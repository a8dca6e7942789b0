package dista

import (
	"io"
	"testing"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/instrument"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// Adaptive fast-path benchmarks backing BENCH_7.json: the taint-density
// tiering engine must price each traffic shape at its own tier —
// uniformly tainted bulk rides the 4-byte uniform frame instead of the
// 5x group codec and sparse traffic pays only for its dirty islands,
// both held near the clean passthrough floor. The dense and flapping
// (uniform and dense payloads alternating every write) shapes are
// recorded ungated: they price the group codec and the hysteresis that
// keeps the tracker on it. All criteria are same-run ratios, so host
// drift cancels out.
func BenchmarkAdaptivePath(b *testing.B) {
	const size = 64 << 10

	clean := func(a *tracker.Agent) []taint.Bytes {
		return []taint.Bytes{taint.MakeBytes(size)}
	}
	uniform := func(a *tracker.Agent) []taint.Bytes {
		p := taint.MakeBytes(size)
		p.SetRange(0, size, a.Source("vu", "u"))
		return []taint.Bytes{p}
	}
	// Four 256-byte dirty islands: 1 KiB tainted of 64 KiB.
	sparse := func(a *tracker.Agent) []taint.Bytes {
		p := taint.MakeBytes(size)
		src := a.Source("vs", "s")
		for off := 0; off < size; off += size / 4 {
			p.SetRange(off, off+256, src)
		}
		return []taint.Bytes{p}
	}
	// Alternating labels byte by byte: maximal fragmentation, the shape
	// only the group codec can carry.
	dense := func(a *tracker.Agent) []taint.Bytes {
		p := taint.MakeBytes(size)
		s1, s2 := a.Source("vd1", "d1"), a.Source("vd2", "d2")
		for i := 0; i < size; i += 2 {
			p.SetLabel(i, s1)
		}
		for i := 1; i < size; i += 2 {
			p.SetLabel(i, s2)
		}
		return []taint.Bytes{p}
	}
	// The adversarial schedule for the tier tracker: alternate a uniform
	// and a dense payload every write.
	flapping := func(a *tracker.Agent) []taint.Bytes {
		return append(uniform(a), dense(a)...)
	}

	// CleanExchange is the in-run floor: an untainted payload must ride
	// the passthrough tier.
	b.Run("CleanExchange", func(b *testing.B) {
		benchTierExchange(b, size, clean)
	})
	b.Run("UniformExchange", func(b *testing.B) {
		benchTierExchange(b, size, uniform)
	})
	b.Run("SparseExchange", func(b *testing.B) {
		benchTierExchange(b, size, sparse)
	})
	b.Run("DenseExchange", func(b *testing.B) {
		benchTierExchange(b, size, dense)
	})
	// Hysteresis holds the flapping stream at groups.
	b.Run("FlappingExchange", func(b *testing.B) {
		benchTierExchange(b, size, flapping)
	})
}

// benchTierExchange round-trips the payload cycle built by mk through
// an endpoint pair, with the receiver decoding into a reused buffer.
func benchTierExchange(b *testing.B, size int, mk func(*tracker.Agent) []taint.Bytes) {
	net := netsim.New()
	store := taintmap.NewStore()
	sAgent, rAgent := benchAgent("s", store), benchAgent("r", store)
	cs, cr := net.Pipe()
	sender := instrument.NewEndpoint(sAgent, cs)
	receiver := instrument.NewEndpoint(rAgent, cr)
	payloads := mk(sAgent)

	done := make(chan error, 1)
	go func() {
		buf := taint.MakeBytes(size)
		for {
			if _, err := receiver.Read(&buf); err != nil {
				if err == io.EOF {
					done <- nil
				} else {
					done <- err
				}
				return
			}
		}
	}()

	// Warm up: converge the density tracker, register the labels (the
	// GlobalID cache makes later writes pure encode), and size the
	// endpoint scratch, so steady state is what gets measured.
	for i := 0; i < 8; i++ {
		if err := sender.Write(payloads[i%len(payloads)]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Write(payloads[i%len(payloads)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cs.Close()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}
