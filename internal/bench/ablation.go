package bench

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"time"

	"dista/internal/core/taint"
	"dista/internal/core/tracker"
	"dista/internal/core/wire"
	"dista/internal/instrument"
	"dista/internal/netsim"
	"dista/internal/taintmap"
)

// Ablations quantify the design choices DESIGN.md calls out:
//
//   - A1 caching: the Taint Map client caches (Fig. 9 step ② plus the
//     receiver-side memo) against an uncached baseline;
//   - A2 wire format: the fixed-width Global ID next to each byte
//     against the naive alternative of shipping the serialized taint
//     blob per byte (§III-D-2's motivating bandwidth argument).

// AblationResult captures one cached/uncached timing pair.
type AblationResult struct {
	Cached   time.Duration
	Uncached time.Duration
}

// streamExchange pushes size tainted bytes across one connection using
// the given Taint Map clients, returning the elapsed time.
func streamExchange(size int, mkClient func(*taintmap.Store, *taint.Tree) taintmap.Client) (time.Duration, error) {
	net := netsim.New()
	store := taintmap.NewStore()
	mk := func(name string) *tracker.Agent {
		a := tracker.New(name, tracker.ModeDista)
		return tracker.New(name, tracker.ModeDista,
			tracker.WithTaintMap(mkClient(store, a.Tree())))
	}
	aAgent, bAgent := mk("a"), mk("b")
	ca, cb := net.Pipe()
	sender := instrument.NewEndpoint(aAgent, ca)
	receiver := instrument.NewEndpoint(bAgent, cb)

	// Alternate two taints per byte so the endpoint's adjacent-byte
	// run memo cannot absorb the cost: every byte forces a client call,
	// isolating the cached-vs-uncached difference.
	payload := taint.MakeBytes(size)
	t1 := aAgent.Source("s", "abl1")
	t2 := aAgent.Source("s", "abl2")
	for i := 0; i < payload.Len(); i++ {
		if i%2 == 0 {
			payload.SetLabel(i, t1)
		} else {
			payload.SetLabel(i, t2)
		}
	}

	// Collect the set-up garbage, and whatever the previous exchange
	// left, before the clock starts: otherwise the allocation-heavy
	// uncached exchange hands part of its GC bill to whichever sample
	// runs next.
	runtime.GC()

	var (
		wg      sync.WaitGroup
		recvErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := taint.MakeBytes(4096)
		got := 0
		for got < size {
			n, err := receiver.Read(&buf)
			if err != nil {
				recvErr = err
				return
			}
			got += n
		}
	}()

	start := time.Now()
	err := sender.Write(payload)
	wg.Wait()
	elapsed := time.Since(start)
	if err == nil {
		err = recvErr
	}
	return elapsed, err
}

// ablationMinPairs is the fewest measured cached/uncached pairs the
// caching ablation takes its medians over.
const ablationMinPairs = 5

// MeasureCachingAblation times the tainted stream exchange with the
// production (cached) client and the ablation (uncached) client, as
// the median over max(iters, ablationMinPairs) pairs. One discarded
// warm-up pair runs first, and the pairs alternate which client goes
// first, so neither side systematically inherits a cold start.
func MeasureCachingAblation(size, iters int) (AblationResult, error) {
	clients := [2]func(*taintmap.Store, *taint.Tree) taintmap.Client{
		func(s *taintmap.Store, tr *taint.Tree) taintmap.Client { return taintmap.NewLocalClient(s, tr) },
		func(s *taintmap.Store, tr *taint.Tree) taintmap.Client { return &uncachedClient{store: s, tree: tr} },
	}
	pairs := max(iters, ablationMinPairs)
	var samples [2][]time.Duration // cached, uncached
	// Pair -1 is the discarded warm-up.
	for i := -1; i < pairs; i++ {
		for k := 0; k < 2; k++ {
			side := k
			if i%2 != 0 {
				side = 1 - k
			}
			d, err := streamExchange(size, clients[side])
			if err != nil {
				return AblationResult{}, err
			}
			if i >= 0 {
				samples[side] = append(samples[side], d)
			}
		}
	}
	return AblationResult{Cached: medianDuration(samples[0]), Uncached: medianDuration(samples[1])}, nil
}

// medianDuration returns the median of ds (the upper one for an even
// count), reordering ds in place.
func medianDuration(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// WireFormatComparison quantifies §III-D-2's bandwidth argument: wire
// bytes for n data bytes under (a) the Global ID design and (b) the
// naive serialize-the-taint-per-byte alternative.
type WireFormatComparison struct {
	DataBytes      int
	GlobalIDWire   int // 5 bytes per data byte
	InlineBlobWire int // 1 + 2 + len(blob) per data byte
	BlobLen        int
}

// CompareWireFormats computes the comparison for n bytes all tainted by
// one realistic taint (descriptor-style tag value).
func CompareWireFormats(n int) (WireFormatComparison, error) {
	tree := taint.NewTree()
	t := tree.NewSource(
		"org.apache.zookeeper.server.quorum.FastLeaderElection$Notification.vote",
		"192.168.10.21:28841",
	)
	blob, err := taint.MarshalTaint(t)
	if err != nil {
		return WireFormatComparison{}, err
	}
	return WireFormatComparison{
		DataBytes:      n,
		GlobalIDWire:   wire.WireLen(n),
		InlineBlobWire: n * (1 + 2 + len(blob)),
		BlobLen:        len(blob),
	}, nil
}

// WriteAblations prints both ablations.
func WriteAblations(w io.Writer, size, iters int) error {
	res, err := MeasureCachingAblation(size, iters)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ABLATION A1: TAINT MAP CLIENT CACHING (%d tainted bytes)\n", size)
	fmt.Fprintf(w, "  cached client:   %s\n", res.Cached)
	fmt.Fprintf(w, "  uncached client: %s (%.2fx)\n\n", res.Uncached, Overhead(res.Uncached, res.Cached))

	cmp, err := CompareWireFormats(size)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ABLATION A2: WIRE FORMAT (%d data bytes, %d-byte serialized taint)\n", cmp.DataBytes, cmp.BlobLen)
	fmt.Fprintf(w, "  Global ID design: %10d wire bytes (%.2fx data)\n",
		cmp.GlobalIDWire, float64(cmp.GlobalIDWire)/float64(cmp.DataBytes))
	fmt.Fprintf(w, "  inline taint blob:%10d wire bytes (%.2fx data)\n",
		cmp.InlineBlobWire, float64(cmp.InlineBlobWire)/float64(cmp.DataBytes))
	return nil
}
