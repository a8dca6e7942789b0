// Command benchjson turns `go test -bench` output into the repo's
// BENCH_N.json artifact: per-benchmark ns/op, B/op and allocs/op
// (median across -count repetitions), next to the frozen seed baselines
// so the speedups the PR claims are recomputable from the artifact
// alone.
//
// Usage:
//
//	go test -run=NONE -bench='...' -benchmem -count=3 . | go run ./cmd/benchjson -out BENCH_1.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// seedBaseline is one benchmark measured at the seed commit.
type seedBaseline struct {
	NsPerOp     float64
	AllocsPerOp int64
}

// seedBaselines holds the pre-refactor numbers for the hot-path
// benchmarks: the seed tree (commit 85f4d41) plus the identical
// benchmark harness, run back-to-back with the current tree on the same
// host so the ratios are load-comparable. Composite seed paths use the
// seed per-byte APIs (per-byte Register with the endpoint's
// adjacent-byte memo, per-byte id encode), matching what the seed
// Endpoint did on the wire path.
var seedBaselines = map[string]seedBaseline{}

// seedJSON is the frozen measurement described above; parsed into
// seedBaselines at startup. Kept as data so re-baselining is a
// copy-paste, not a code edit. Medians of 4 interleaved repetitions
// (seed/current alternating, -benchtime=0.5s) on a shared
// Intel Xeon @ 2.10GHz box, 2026-08-06.
//
// The TaintMapConcurrent/Mux8 entry was measured the same way against
// the pre-sharding tree (commit fbd77bd): its stop-and-wait
// RemoteClient driven by the identical 8-goroutine 90/10 mixed harness.
const seedJSON = `{
  "HotPath/TaintAllUniform":          {"NsPerOp": 174195.0, "AllocsPerOp": 0},
  "HotPath/UnionUniform":             {"NsPerOp": 147903.5, "AllocsPerOp": 0},
  "HotPath/EncodePathUniform":        {"NsPerOp": 440426.5, "AllocsPerOp": 2},
  "HotPath/DecodePathUniform":        {"NsPerOp": 588292.5, "AllocsPerOp": 49},
  "HotPath/MixedSetLabel":            {"NsPerOp": 10630.5,  "AllocsPerOp": 0},
  "HotPath/MixedLabelAt":             {"NsPerOp": 4715.5,   "AllocsPerOp": 0},
  "HotPath/MixedStreamExchange":      {"NsPerOp": 254514.5, "AllocsPerOp": 38},
  "HotPath/CombineCached":            {"NsPerOp": 67.5,     "AllocsPerOp": 1},
  "HotPath/SingleTaintEncode":        {"NsPerOp": 105473.5, "AllocsPerOp": 1},
  "HotPath/SingleTaintDecode":        {"NsPerOp": 374077.5, "AllocsPerOp": 48},
  "TaintMap/RegisterDistinct":        {"NsPerOp": 3069.0,   "AllocsPerOp": 7},
  "TaintMap/RegisterCached":          {"NsPerOp": 21.48,    "AllocsPerOp": 0},
  "TaintMap/LookupCached":            {"NsPerOp": 22.01,    "AllocsPerOp": 0},
  "WireCodec/Encode":                 {"NsPerOp": 101752.0, "AllocsPerOp": 1},
  "WireCodec/Decode":                 {"NsPerOp": 376847.0, "AllocsPerOp": 48},
  "TaintCombine/Interned":            {"NsPerOp": 69.75,    "AllocsPerOp": 1},
  "TaintCombine/ShadowArrayTaintAll": {"NsPerOp": 169886.0, "AllocsPerOp": 0},

  "TaintMapConcurrent/Mux8":           {"NsPerOp": 1404.5,  "AllocsPerOp": 1}
}`

type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	P99NsPerOp  float64 `json:"p99_ns_per_op,omitempty"`
	P999NsPerOp float64 `json:"p999_ns_per_op,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Samples     int     `json:"samples"`

	// Metrics holds the remaining b.ReportMetric units (medians), e.g.
	// the load plane's goroutine counts and taints/sec.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	SeedNsPerOp     float64 `json:"seed_ns_per_op,omitempty"`
	SeedAllocsPerOp int64   `json:"seed_allocs_per_op,omitempty"`
	Speedup         float64 `json:"speedup_vs_seed,omitempty"`
}

type criterion struct {
	Name      string  `json:"name"`
	Benchmark string  `json:"benchmark"`
	Require   string  `json:"require"`
	Measured  float64 `json:"measured"`
	Pass      bool    `json:"pass"`
}

type report struct {
	Note     string      `json:"note"`
	GoOS     string      `json:"goos,omitempty"`
	GoArch   string      `json:"goarch,omitempty"`
	CPU      string      `json:"cpu,omitempty"`
	Results  []result    `json:"results"`
	Criteria []criterion `json:"criteria"`
}

// benchName strips the GOMAXPROCS suffix from a benchmark line's first
// field. The rest of the line is free-form (value, unit) pairs — ns/op
// and the -benchmem pair interleaved with whatever custom units
// b.ReportMetric emitted, printed in the testing package's order — so
// the parser tokenizes pairs generically instead of pinning an order.
var benchName = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?$`)

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func main() {
	in := flag.String("in", "-", "benchmark output file ('-' = stdin)")
	out := flag.String("out", "BENCH_1.json", "output JSON path")
	flag.Parse()

	if err := json.Unmarshal([]byte(seedJSON), &seedBaselines); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: bad embedded seed baselines: %v\n", err)
		os.Exit(1)
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}

	type agg struct {
		ns      []float64
		p99     []float64
		p999    []float64
		bytes   []float64
		allocs  []float64
		metrics map[string][]float64
	}
	aggs := map[string]*agg{}
	var order []string
	rep := report{Note: "seed = pre-change baseline measured with the identical harness on the same host, back-to-back: commit 85f4d41 (pre-run-representation) for the HotPath/Wire suites, commit fbd77bd (pre-sharding stop-and-wait taint map) for the TaintMapConcurrent suite"}

	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		nm := benchName.FindStringSubmatch(fields[0])
		if nm == nil {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // not an iteration count — not a result line
		}
		name := strings.TrimPrefix(nm[1], "Benchmark")
		a := aggs[name]
		if a == nil {
			a = &agg{metrics: map[string][]float64{}}
			aggs[name] = a
			order = append(order, name)
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				a.ns = append(a.ns, v)
			case "p99-ns/op":
				a.p99 = append(a.p99, v)
			case "p999-ns/op":
				a.p999 = append(a.p999, v)
			case "B/op":
				a.bytes = append(a.bytes, v)
			case "allocs/op":
				a.allocs = append(a.allocs, v)
			case "MB/s":
				// throughput restatement of ns/op; skip
			default:
				a.metrics[unit] = append(a.metrics[unit], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	for _, name := range order {
		a := aggs[name]
		res := result{
			Name:        name,
			NsPerOp:     median(a.ns),
			P99NsPerOp:  median(a.p99),
			P999NsPerOp: median(a.p999),
			BytesPerOp:  int64(median(a.bytes)),
			AllocsPerOp: int64(median(a.allocs)),
			Samples:     len(a.ns),
		}
		for unit, vs := range a.metrics {
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = median(vs)
		}
		if sb, ok := seedBaselines[name]; ok {
			res.SeedNsPerOp = sb.NsPerOp
			res.SeedAllocsPerOp = sb.AllocsPerOp
			if res.NsPerOp > 0 {
				res.Speedup = sb.NsPerOp / res.NsPerOp
			}
		}
		rep.Results = append(rep.Results, res)
	}

	find := func(name string) *result {
		for i := range rep.Results {
			if rep.Results[i].Name == name {
				return &rep.Results[i]
			}
		}
		return nil
	}
	// Each criterion is attached only when its benchmark is present in
	// this run, so a partial run (say, only the taintmap suite) reports
	// only the criteria it can actually measure instead of spurious
	// failures for benchmarks that never executed.
	speedupAtLeast := func(label, bench string, min float64) {
		r := find(bench)
		if r == nil {
			return
		}
		c := criterion{Name: label, Benchmark: bench, Require: fmt.Sprintf(">= %.1fx vs seed", min)}
		if r.Speedup > 0 {
			c.Measured = r.Speedup
			c.Pass = r.Speedup >= min
		}
		rep.Criteria = append(rep.Criteria, c)
	}
	slowdownAtMost := func(label, bench string, max float64) {
		r := find(bench)
		if r == nil {
			return
		}
		c := criterion{Name: label, Benchmark: bench, Require: fmt.Sprintf("<= %.1fx of seed", max)}
		if r.Speedup > 0 {
			c.Measured = 1 / r.Speedup
			c.Pass = c.Measured <= max
		}
		rep.Criteria = append(rep.Criteria, c)
	}
	// ratioAtMost bounds one benchmark by another from the *same run*
	// (num over denom), which is immune to day-to-day drift of the host.
	ratioAtMost := func(label, num, denom string, max float64) {
		rn, rd := find(num), find(denom)
		if rn == nil || rd == nil {
			return
		}
		c := criterion{
			Name:      label,
			Benchmark: num,
			Require:   fmt.Sprintf("<= %.2fx of %s (same run)", max, denom),
		}
		if rn.NsPerOp > 0 && rd.NsPerOp > 0 {
			c.Measured = rn.NsPerOp / rd.NsPerOp
			c.Pass = c.Measured <= max
		}
		rep.Criteria = append(rep.Criteria, c)
	}
	// scalingAtLeast checks a same-run scaling series: every benchmark in
	// the series ran, and throughput from the first member (the 1-server
	// baseline) to the last (the full cluster) improved by at least min.
	// The intermediate points must not regress below the baseline, so a
	// series that only wins at the final size by luck still fails. Each
	// member must carry at least scalingMinSamples repetitions — a
	// scaling claim from a single noisy sample per point is no claim.
	const scalingMinSamples = 5
	scalingAtLeast := func(label string, series []string, min float64) {
		rs := make([]*result, len(series))
		for i, name := range series {
			if rs[i] = find(name); rs[i] == nil {
				return
			}
		}
		c := criterion{
			Name:      label,
			Benchmark: series[len(series)-1],
			Require: fmt.Sprintf(">= %.1fx vs %s (same-run series, >= %d samples/point)",
				min, series[0], scalingMinSamples),
		}
		base, last := rs[0].NsPerOp, rs[len(rs)-1].NsPerOp
		if base > 0 && last > 0 {
			c.Measured = base / last
			c.Pass = c.Measured >= min
			for _, r := range rs[1:] {
				if r.NsPerOp > base {
					c.Pass = false
				}
			}
			for _, r := range rs {
				if r.Samples < scalingMinSamples {
					c.Pass = false
				}
			}
		}
		rep.Criteria = append(rep.Criteria, c)
	}
	// p99RatioAtMost bounds one benchmark's reported tail latency
	// (p99-ns/op custom metric) by another's from the same run — the
	// gray-failure form of ratioAtMost: means hide a stalled replica
	// behind the healthy majority, the p99 does not.
	p99RatioAtMost := func(label, num, denom string, max float64) {
		rn, rd := find(num), find(denom)
		if rn == nil || rd == nil {
			return
		}
		c := criterion{
			Name:      label,
			Benchmark: num,
			Require:   fmt.Sprintf("p99 <= %.1fx of %s p99 (same run)", max, denom),
		}
		if rn.P99NsPerOp > 0 && rd.P99NsPerOp > 0 {
			c.Measured = rn.P99NsPerOp / rd.P99NsPerOp
			c.Pass = c.Measured <= max
		}
		rep.Criteria = append(rep.Criteria, c)
	}
	// p999RatioAtMost is p99RatioAtMost one decade further out: the
	// load-plane soak criterion compares p999-ns/op between two runs of
	// the same per-op workload at different connection counts, so the
	// bound prices fabric scaling alone.
	p999RatioAtMost := func(label, num, denom string, max float64) {
		rn, rd := find(num), find(denom)
		if rn == nil || rd == nil {
			return
		}
		c := criterion{
			Name:      label,
			Benchmark: num,
			Require:   fmt.Sprintf("p999 <= %.1fx of %s p999 (same run)", max, denom),
		}
		if rn.P999NsPerOp > 0 && rd.P999NsPerOp > 0 {
			c.Measured = rn.P999NsPerOp / rd.P999NsPerOp
			c.Pass = c.Measured <= max
		}
		rep.Criteria = append(rep.Criteria, c)
	}
	// metricRatioAtLeast bounds the ratio of an arbitrary custom metric
	// between two same-run benchmarks — the goroutine-headroom form:
	// sink-goroutines under the goroutine-per-connection sink over the
	// polled sink's.
	metricRatioAtLeast := func(label, num, denom, metric string, min float64) {
		rn, rd := find(num), find(denom)
		if rn == nil || rd == nil {
			return
		}
		c := criterion{
			Name:      label,
			Benchmark: num,
			Require:   fmt.Sprintf("%s >= %.1fx of %s (same run)", metric, min, denom),
		}
		if rn.Metrics[metric] > 0 && rd.Metrics[metric] > 0 {
			c.Measured = rn.Metrics[metric] / rd.Metrics[metric]
			c.Pass = c.Measured >= min
		}
		rep.Criteria = append(rep.Criteria, c)
	}
	// allocsAtMost bounds a benchmark's allocs/op — the pool-leak check
	// for the zero-allocation clean path. Requires the run to have been
	// collected with -benchmem.
	allocsAtMost := func(label, bench string, max int64) {
		r := find(bench)
		if r == nil {
			return
		}
		c := criterion{
			Name:      label,
			Benchmark: bench,
			Require:   fmt.Sprintf("<= %d allocs/op", max),
			Measured:  float64(r.AllocsPerOp),
			Pass:      r.AllocsPerOp <= max,
		}
		rep.Criteria = append(rep.Criteria, c)
	}
	speedupAtLeast("uniform TaintAll", "HotPath/TaintAllUniform", 5)
	speedupAtLeast("uniform Union", "HotPath/UnionUniform", 5)
	speedupAtLeast("single-taint 64KiB encode path", "HotPath/EncodePathUniform", 5)
	speedupAtLeast("single-taint 64KiB decode path", "HotPath/DecodePathUniform", 5)
	slowdownAtMost("mixed per-byte-label workload", "HotPath/MixedStreamExchange", 1.2)
	speedupAtLeast("concurrent taint map throughput (vs seed)", "TaintMapConcurrent/Mux8", 3)
	ratioAtMost("resilience wrapper overhead (fault-free, in-run)",
		"TaintMapConcurrent/Resilient8", "TaintMapConcurrent/Mux8", 1.10)
	// BENCH_5 criteria: the clean-path bypass. The copy-floor overhead
	// is a same-run comparison; the tainted path is held to the seed
	// within measurement noise.
	ratioAtMost("clean write overhead vs plain netsim copy (in-run)",
		"CleanPath/PassthroughWrite", "CleanPath/NetsimCopy", 1.5)
	allocsAtMost("clean write allocation-free (pool-leak check)",
		"CleanPath/PassthroughWrite", 0)
	slowdownAtMost("tainted exchange unchanged by the bypass", "HotPath/MixedStreamExchange", 1.05)
	// BENCH_6 criteria: the taint-map cluster. Scaling is the tentpole —
	// the same 8-goroutine mixed workload against 1, 2 and 4 members,
	// each member a fixed-capacity service-time model, must register at
	// least 2.5x faster at 4 members. The overhead bound keeps the
	// cluster client honest for the degenerate single-server deployment.
	scalingAtLeast("register throughput scaling 1->4 members",
		[]string{"TaintMapCluster/Scale1", "TaintMapCluster/Scale2", "TaintMapCluster/Scale4"}, 2.5)
	ratioAtMost("cluster client single-server overhead (in-run)",
		"TaintMapConcurrent/Cluster8", "TaintMapConcurrent/Mux8", 1.05)
	// BENCH_7 criteria: the adaptive tier engine. Both bounds are
	// same-run ratios: the uniform and sparse tiers must land close to
	// the clean-path floor (that is the point of the new frames).
	ratioAtMost("uniform-tainted bulk vs clean floor (in-run)",
		"AdaptivePath/UniformExchange", "AdaptivePath/CleanExchange", 1.3)
	ratioAtMost("sparse-tainted bulk vs clean floor (in-run)",
		"AdaptivePath/SparseExchange", "AdaptivePath/CleanExchange", 1.5)
	// BENCH_8 criteria: gray-failure hardening. A replica that accepts
	// requests but never answers may cost the lookup tail at most 3x the
	// healthy tail — the hedge/breaker machinery absorbs it — while the
	// hedged client on clean traffic stays within noise of the PR 7
	// sequential client (memo hits never arm a hedge).
	p99RatioAtMost("stalled-replica lookup tail (in-run)",
		"GrayFail/LookupStalled", "GrayFail/LookupHealthy", 3)
	ratioAtMost("hedging clean-path overhead (in-run)",
		"GrayFail/MixedHedged", "GrayFail/MixedUnhedged", 1.05)
	// BENCH_9 criteria: the distavet suite with the interprocedural
	// layer. The nine-analyzer suite — call graph, summary fixpoint and
	// the two new analyzers included — must stay within 1.5x of the
	// original five-analyzer core over the same package set: the index
	// is built once and shared, so the summary engine may not multiply
	// the per-analyzer cost. The warm-cache bound is the fact store's
	// reason to exist: a re-run over an unchanged tree replays cached
	// package entries and must land at or below 0.35x of the cold suite.
	// (BENCH_4.json froze the pre-interprocedural 1.15x six-analyzer
	// bound as a historical artifact; this pair supersedes it.)
	ratioAtMost("distavet 9-analyzer suite vs five-analyzer core (in-run)",
		"Distavet/Suite", "Distavet/Core", 1.5)
	ratioAtMost("distavet warm fact-cache replay vs cold suite (in-run)",
		"Distavet/SuiteWarm", "Distavet/Suite", 0.35)
	// BENCH_10 criteria: the scheduler-fabric load plane. Both soaks run
	// the identical closed-loop per-connection workload (2 ops x 512 B,
	// default transport and taint mix), differing only in connection
	// count, so the 50k/1k p999 ratio measures how the fabric's run
	// queues, accept rings and credit backpressure price a 50x fan-in —
	// the bound holds the tail to single-digit growth where a
	// goroutine-per-connection fabric would not finish at all. The
	// headroom criterion compares the echo sink's goroutine bill for the
	// same 5k-connection workload under the polled fabric versus the
	// pre-fabric one-goroutine-per-accept shape.
	p999RatioAtMost("50k-conn soak tail vs 1k-conn baseline (in-run)",
		"LoadPlane/Soak50k", "LoadPlane/Soak1k", 12)
	metricRatioAtLeast("sink goroutine headroom, per-conn vs polled (in-run)",
		"LoadPlane/SinkGoroutine5k", "LoadPlane/SinkPolled5k", "sink-goroutines", 5)

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %s (%d benchmarks, %d criteria)\n", *out, len(rep.Results), len(rep.Criteria))
	for _, c := range rep.Criteria {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Printf("  [%s] %-32s %s (measured %.2fx)\n", status, c.Name, c.Require, c.Measured)
	}
}
