// Command perfbench is the repository's benchmark: it drives the paper's
// workloads through the stack a deployment uses — application-facing jre
// classes, agents attached from launch-script agent args through
// instrument.DialTaintMap, and Taint Map servers on the netsim fabric —
// and checks the bytes and labels of every op.
//
//	perfbench --workload paper-micro --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the traced measurement and prints the per-layer metrics. The last
// line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md gives every
// workload's rationale and every metric's definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dista/internal/core/tracker"
)

// Paths an op's bytes take, for splitting the wire factor.
const (
	pathStream = iota
	pathDatagram
)

// opResult is the outcome of one op, as its runner measured and checked
// it.
type opResult struct {
	lat   time.Duration // send call to the full reply decoded
	fail  string        // why the oracle rejected the op; "" = passed
	path  int           // pathStream or pathDatagram
	data  int64         // payload bytes the op's agents handed to the JNI layer
	group string        // Table II group (paper-micro only)
}

// rig is one workload built on a stack: a runner per session and the
// teardown of whatever the workload started besides the stack.
type rig struct {
	sessions []func(i int) opResult // runs op i (i % len(sessions) == session)
	close    func()
}

// workload is one named load shape. Ops [0, warm) of a round are the
// warm-up, ops [warm, warm+ops) are timed. Every input of op i is a pure
// function of (seed, round, i).
type workload struct {
	name     string
	members  int // Taint Map servers: 1 standalone, 2 = cluster with RF 2
	sessions int
	warm     int
	ops      int
	build    func(st *stack, mode tracker.Mode, seed int64, round int, tr []*sessTrace) (*rig, error)
}

var workloads = []*workload{paperMicro, labelChurn, smallMixed}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// round is one measured round: fresh stack, warm-up, timed phase. It
// keeps summaries only, so rounds already run do not grow the heap the
// next round is measured in.
type round struct {
	setup, wall, cpu time.Duration
	ops              int      // timed ops
	attempted        int      // warm-up and timed ops
	failed           int      // of attempted
	reasons          []string // the first few failures
	p50, p99, mean   float64  // per-op round trip, us
	heapMB           float64
	dataBytes        int64 // Agent.Traffic deltas over the timed phase
	wireBytes        int64
	pathData         [2]int64             // payload bytes by path (pathStream, pathDatagram)
	groupLat         map[string][]float64 // Table II group -> case times, us
	allocBytes       uint64
	gcCycles         uint32
	net              netDelta
	treeNodes        int64
	globalTaints     int64
	spans            []span
	sp               spanStats
	probe            counts // probe counter deltas over the timed phase
}

type netDelta struct{ streamBytes, datagramBytes, datagrams, lost int64 }

// summarize records the timed ops' outcomes.
func (r *round) summarize(results []opResult) {
	r.ops = len(results)
	lats := make([]time.Duration, len(results))
	var sum time.Duration
	for i, o := range results {
		lats[i] = o.lat
		sum += o.lat
		r.pathData[o.path] += o.data
		if o.group != "" {
			if r.groupLat == nil {
				r.groupLat = map[string][]float64{}
			}
			r.groupLat[o.group] = append(r.groupLat[o.group], us(o.lat))
		}
		if o.fail != "" {
			r.failed++
			if len(r.reasons) < 5 {
				r.reasons = append(r.reasons, o.fail)
			}
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	r.p50, r.p99 = us(quantile(lats, 0.50)), us(quantile(lats, 0.99))
	r.mean = us(sum) / float64(len(results))
}

// runOps runs ops [from, to) closed-loop: one goroutine per session,
// each with one op outstanding.
func runOps(rg *rig, from, to int) []opResult {
	out := make([]opResult, to-from)
	n := len(rg.sessions)
	done := make(chan struct{})
	for s, run := range rg.sessions {
		go func(s int, run func(int) opResult) {
			defer func() { done <- struct{}{} }()
			first := from + ((s-from%n)%n+n)%n
			for i := first; i < to; i += n {
				out[i-from] = run(i)
			}
		}(s, run)
	}
	for range rg.sessions {
		<-done
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRound builds the workload on a fresh stack, warms it up and times
// w.ops ops. A non-nil probe makes it a traced round.
func runRound(w *workload, mode tracker.Mode, p *probe, seed int64, idx int) (*round, error) {
	// The previous round's state must not be collected on this round's
	// clock, and its heap is the baseline this round's state adds to.
	heap0 := liveHeap()
	start := time.Now()
	st, err := newStack(w.members, p)
	if err != nil {
		return nil, err
	}
	defer st.close()
	var tr []*sessTrace
	if p != nil {
		for range w.sessions {
			tr = append(tr, &sessTrace{tr: p.tr})
		}
	}
	rg, err := w.build(st, mode, seed, idx, tr)
	if err != nil {
		return nil, err
	}
	defer rg.close()
	r := &round{}
	warm := runOps(rg, 0, w.warm)
	r.setup = time.Since(start)
	for _, o := range warm {
		if o.fail != "" {
			r.failed++
			if len(r.reasons) < 5 {
				r.reasons = append(r.reasons, "warm-up: "+o.fail)
			}
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	net0 := st.net.Stats()
	data0, wire0 := st.traffic()
	nodes0, taints0 := st.treeNodes(), st.globalTaints()
	var pc0 counts
	if p != nil {
		p.tr.take() // the warm-up's spans
		pc0 = p.counts()
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	results := runOps(rg, w.warm, w.warm+w.ops)
	r.wall = time.Since(t0)
	r.cpu = cpuTime() - cpu0
	r.summarize(results)
	r.attempted = len(warm) + len(results)

	data1, wire1 := st.traffic()
	r.dataBytes, r.wireBytes = data1-data0, wire1-wire0
	net1 := st.net.Stats()
	r.net = netDelta{
		streamBytes:   net1.StreamBytes - net0.StreamBytes,
		datagramBytes: net1.DatagramBytes - net0.DatagramBytes,
		datagrams:     net1.Datagrams - net0.Datagrams,
		lost:          net1.DatagramsLost - net0.DatagramsLost,
	}
	r.treeNodes = st.treeNodes() - nodes0
	r.globalTaints = st.globalTaints() - taints0
	if p != nil {
		r.probe = p.counts()
		r.probe.add(pc0, -1)
		r.spans = p.tr.take()
		r.sp = summarizeSpans(r.spans)
	}
	runtime.ReadMemStats(&ms1)
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles = ms1.NumGC - ms0.NumGC
	// Shadow-memory bill: live heap with every piece of round state
	// (stores, trees, memos, the rig) still reachable.
	r.heapMB = float64(liveHeap()-heap0) / (1 << 20)
	runtime.KeepAlive(rg)
	runtime.KeepAlive(st)
	return r, nil
}

// liveHeap returns HeapAlloc after a full collection. The second GC also
// drops what sync.Pool victim caches still held.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally accumulates attempted/failed over rounds and keeps the first few
// failure reasons for the log.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) add(r *round) {
	t.attempted += r.attempted
	t.failed += r.failed
	for _, reason := range r.reasons {
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, reason)
		}
	}
}

func main() {
	name := flag.String("workload", "", "workload: paper-micro, label-churn or small-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spanDir := flag.String("span-dir", "", "directory the traced run writes its spans to (empty: not written)")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	// End the process, failed, if a round wedges.
	watchdog := time.AfterFunc(2*budget+100*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog: run did not finish")
		os.Exit(3)
	})
	defer watchdog.Stop()

	var (
		res result
		err error
	)
	if *trace == 0 {
		res, err = endToEnd(w, *seed, budget)
	} else {
		res, err = traced(w, *seed, budget, *spanDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printMetrics(res)
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// endToEnd repeats rounds until the budget is spent and reports every
// end-to-end metric as its median over rounds. Each round holds at least
// 1000 timed ops, so its p99 has at least ten samples beyond it.
func endToEnd(w *workload, seed int64, budget time.Duration) (result, error) {
	var rounds []*round
	var t tally
	start := time.Now()
	if err := warmProcess(w, seed, &t); err != nil {
		return result{}, err
	}
	for i := 0; ; i++ {
		r, err := runRound(w, tracker.ModeDista, nil, seed, i)
		if err != nil {
			return result{}, err
		}
		rounds = append(rounds, r)
		t.add(r)
		fmt.Fprintf(os.Stderr, "perfbench: round %d: setup %.3fs, %.1f ops/s, %.1f us CPU/op, heap %.2f MB\n",
			i, r.setup.Seconds(), float64(r.ops)/r.wall.Seconds(), float64(r.cpu.Microseconds())/float64(r.ops), r.heapMB)
		if time.Since(start) >= budget && len(rounds) >= minRounds {
			break
		}
	}
	logFailures(&t)
	var p50, p99, opsPerS, cpu, heap, setup []float64
	var data, wire int64
	samples := 0
	for _, r := range rounds {
		p50 = append(p50, r.p50)
		p99 = append(p99, r.p99)
		samples += r.ops
		opsPerS = append(opsPerS, float64(r.ops)/r.wall.Seconds())
		cpu = append(cpu, float64(r.cpu.Microseconds())/float64(r.ops))
		heap = append(heap, r.heapMB)
		setup = append(setup, r.setup.Seconds())
		data += r.dataBytes
		wire += r.wireBytes
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d rounds of %d ops, %d latency samples (%d beyond p99 per round), fail_share %.6f\n",
		w.name, len(rounds), w.ops, samples, w.ops-int(0.99*float64(w.ops)), failShare(&t))
	m := map[string]metric{
		"ops_per_s":                   {median(opsPerS), "ops/s"},
		"latency_p50_us":              {median(p50), "us"},
		"latency_p99_us":              {median(p99), "us"},
		"cpu_us_per_op":               {median(cpu), "us"},
		"wire_bytes_per_payload_byte": {ratio(float64(wire), float64(data)), "ratio"},
		"live_heap_mb":                {median(heap), "MB"},
		"setup_s":                     {median(setup), "s"},
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// warmProcess runs one round whose figures are dropped: the process's
// first round pays for heap growth and lazy runtime set-up that no later
// round pays again. Its ops still count toward attempted and failed.
func warmProcess(w *workload, seed int64, t *tally) error {
	r, err := runRound(w, tracker.ModeDista, nil, seed, -1)
	if err != nil {
		return err
	}
	t.add(r)
	return nil
}

// minRounds is the fewest rounds a median is taken over.
const minRounds = 3

func failShare(t *tally) float64 { return float64(t.failed) / float64(max(t.attempted, 1)) }

func logFailures(t *tally) {
	for _, r := range t.reasons {
		fmt.Fprintf(os.Stderr, "perfbench: failed op: %s\n", r)
	}
}

func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanFile names the span dump of a traced run.
func spanFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.csv", workload, seed))
}
