GO ?= go

# Hot-path benchmark selection shared by `bench` and the A/B harness.
BENCH_RE := BenchmarkHotPath|BenchmarkTaintMap$$|BenchmarkWireCodec|BenchmarkTaintCombine

.PHONY: build test race race-taintmap vet lint check ci chaos bench bench-hotpath bench-taintmap bench-resilience bench-distavet bench-cleanpath bench-cluster bench-grayfail bench-load soak-load fuzz fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The concurrency-heavy taint map suite under the race detector; part of
# `race` too, but callable alone for a quick pre-commit signal.
race-taintmap:
	$(GO) test -race ./internal/taintmap/...

vet:
	$(GO) vet ./...

# distavet: the in-tree static-analysis suite (internal/analysis) that
# enforces the taint-soundness invariants — shadowdrop, labelcopy,
# errcmp, lockorder, mustcheck, idbits, tierencode, taintflow,
# deadsuppress. Exits non-zero on any finding; silence a deliberate
# exception with `//lint:ignore distavet/<name> reason`. The -facts
# cache makes warm re-runs replay unchanged packages (keyed by content
# hash of the package, its import closure and the analyzer set).
lint:
	$(GO) run ./cmd/distavet -facts .distavet-facts ./...

# Chaos suite under the race detector: kill/restart the Taint Map server
# mid-workload, random stream resets — every taint must survive with a
# correct, stable resolution. The instrument scenario additionally pins
# the tiered writer: an outage must never downgrade a tainted buffer
# onto the passthrough frame. Part of `check`; callable alone when
# iterating on the resilience layer.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 ./internal/taintmap ./internal/instrument

# Tier-1 gate: everything CI runs.
check: vet lint build test race chaos soak-load fuzz-smoke bench-cleanpath bench-cluster bench-grayfail bench-distavet bench-load

# Alias for CI pipelines: the full gate, spelled out in build order.
ci: build vet lint test race fuzz-smoke chaos soak-load bench-cleanpath bench-cluster bench-grayfail bench-distavet bench-load

# Regenerate every benchmark artifact (BENCH_1..10) in one pass.
bench: bench-hotpath bench-taintmap bench-resilience bench-distavet bench-cleanpath bench-cluster bench-grayfail bench-load

# Run the hot-path microbenchmarks and refresh BENCH_1.json. Medians of
# -count=3 repetitions; seed baselines are embedded in cmd/benchjson.
bench-hotpath:
	$(GO) test -run=NONE -bench='$(BENCH_RE)' -benchmem -benchtime=1s -count=3 . | tee bench_hotpath.txt
	$(GO) run ./cmd/benchjson -in bench_hotpath.txt -out BENCH_1.json

# Run the multiplexed Taint Map client on the 8-goroutine mixed workload
# and refresh BENCH_2.json (Mux8 vs the pre-sharding seed). Medians of
# -count=5 repetitions: the shared box is noisy, so extra repetitions
# buy stability where it matters. The resilient and cluster clients'
# in-run ratios are BENCH_3's and BENCH_6's, measured by their own
# targets.
bench-taintmap:
	$(GO) test -run=NONE -bench='BenchmarkTaintMapConcurrent/Mux8$$' -benchmem -benchtime=1s -count=5 . | tee bench_taintmap.txt
	$(GO) run ./cmd/benchjson -in bench_taintmap.txt -out BENCH_2.json

# Measure the resilience wrapper's fault-free overhead: ResilientClient
# vs the bare multiplexed client on the same mixed workload, refreshed
# into BENCH_3.json. The acceptance criterion is an in-run ratio
# (Resilient8 <= 1.10x Mux8), so host drift cancels out.
bench-resilience:
	$(GO) test -run=NONE -bench='BenchmarkTaintMapConcurrent/(Mux8|Resilient8)$$' -benchmem -benchtime=1s -count=5 . | tee bench_resilience.txt
	$(GO) run ./cmd/benchjson -in bench_resilience.txt -out BENCH_3.json

# Benchmark the distavet suite itself into BENCH_9.json: the full
# nine-analyzer suite (interprocedural index, summary fixpoint,
# taintflow/deadsuppress included) vs the original five-analyzer core
# over the same pre-loaded module, plus the warm fact-cache replay.
# Both criteria are in-run ratios: Suite <= 1.5x Core (the summary
# engine rides one shared index build) and SuiteWarm <= 0.35x Suite
# (a warm cache must actually skip re-analysis, not just re-verify).
# BENCH_4.json remains frozen as the pre-interprocedural artifact.
bench-distavet:
	$(GO) test -run=NONE -bench=BenchmarkDistavet -benchtime=1s -count=3 . | tee bench_distavet.txt
	$(GO) run ./cmd/benchjson -in bench_distavet.txt -out BENCH_9.json

# Clean-path bypass benchmarks, refreshed into BENCH_5.json, plus the
# adaptive tier suite into BENCH_7.json. The BENCH_5 criteria are an
# in-run ratio (clean write <= 1.5x the raw netsim copy floor), 0
# allocs/op on the clean write, and the tainted exchange held to the
# seed baseline; -benchmem is required for the pool-leak check. The
# BENCH_7 criteria are in-run ratios over one endpoint pair: uniform <=
# 1.3x and sparse <= 1.5x of the clean floor. The dense and flapping
# shapes are recorded ungated.
bench-cleanpath:
	$(GO) test -run=NONE -bench='BenchmarkCleanPath|BenchmarkHotPath/MixedStreamExchange' -benchmem -benchtime=0.5s -count=3 . | tee bench_cleanpath.txt
	$(GO) run ./cmd/benchjson -in bench_cleanpath.txt -out BENCH_5.json
	$(GO) test -run=NONE -bench='BenchmarkAdaptivePath' -benchmem -benchtime=0.5s -count=5 . | tee bench_adaptive.txt
	$(GO) run ./cmd/benchjson -in bench_adaptive.txt -out BENCH_7.json

# Taint Map cluster benchmarks, refreshed into BENCH_6.json. Both
# headline criteria are in-run ratios: the scaling series (the same
# 8-goroutine mixed workload against 1, 2 and 4 service-modeled
# members) must register >= 2.5x faster at 4 members, and the cluster
# client pointed at a single plain server must stay within 1.05x of the
# bare multiplexed client. Part of `check`: a change that quietly
# serializes the members (or fattens the routing layer) fails CI.
# The Mux8/Cluster8 pair needs care to measure a 5% bound on a noisy
# shared host: each side runs in its own `go test` process (so both
# benchmarks are first-in-process — heap age and GC pacing are
# position-dependent and would otherwise land entirely on whichever
# ran second) at a fixed iteration count (time-based calibration picks
# different b.N per side, which skews per-op cost), interleaved five
# times so slow host drift cancels in the medians (benchjson requires
# >= 5 samples per point of the scaling series).
bench-cluster:
	$(GO) test -run=NONE -bench='BenchmarkTaintMapCluster' -benchmem -benchtime=0.5s -count=5 . | tee bench_cluster.txt
	for i in 1 2 3 4 5; do \
		$(GO) test -run=NONE -bench='BenchmarkTaintMapConcurrent/Mux8$$' -benchmem -benchtime=2000000x -count=1 . || exit 1; \
		$(GO) test -run=NONE -bench='BenchmarkTaintMapConcurrent/Cluster8$$' -benchmem -benchtime=2000000x -count=1 . || exit 1; \
	done | tee -a bench_cluster.txt
	$(GO) run ./cmd/benchjson -in bench_cluster.txt -out BENCH_6.json

# Gray-failure benchmarks, refreshed into BENCH_8.json. Both criteria
# are in-run ratios. The lookup pair measures memo-cold wire lookups on
# a 2-member RF-2 cluster, healthy vs one replica stalled (accepts
# requests, never answers); the stalled tail must stay <= 3x the
# healthy tail, which holds only if the breaker + hedge machinery turns
# the stall into instant fall-through. Fixed iteration counts keep
# every measured lookup memo-cold (one id pool pass per run, no
# time-based recalibration). The Mixed pair bounds the hedged client's
# clean-path overhead at 1.05x of the sequential PR 7 client, so it
# gets the own-process interleaved treatment like the Mux8/Cluster8
# pair — and additionally alternates which side runs first: on this
# box the second process of a back-to-back pair measures consistently
# slower (frequency/cache state left by the first), a bias bigger than
# the 5% bound itself, so it must land on both sides equally to cancel
# in the medians.
bench-grayfail:
	$(GO) test -run=NONE -bench='BenchmarkGrayFail/(LookupHealthy|LookupStalled)$$' -benchmem -benchtime=5000x -count=5 . | tee bench_grayfail.txt
	for i in 1 2 3; do \
		$(GO) test -run=NONE -bench='BenchmarkGrayFail/MixedUnhedged$$' -benchmem -benchtime=1000000x -count=1 . || exit 1; \
		$(GO) test -run=NONE -bench='BenchmarkGrayFail/MixedHedged$$' -benchmem -benchtime=1000000x -count=1 . || exit 1; \
		$(GO) test -run=NONE -bench='BenchmarkGrayFail/MixedHedged$$' -benchmem -benchtime=1000000x -count=1 . || exit 1; \
		$(GO) test -run=NONE -bench='BenchmarkGrayFail/MixedUnhedged$$' -benchmem -benchtime=1000000x -count=1 . || exit 1; \
	done | tee -a bench_grayfail.txt
	$(GO) run ./cmd/benchjson -in bench_grayfail.txt -out BENCH_8.json

# Load-plane soaks, refreshed into BENCH_10.json. Each benchmark
# iteration is one whole closed-loop run (-benchtime=1x), repeated for
# medians. Both criteria are in-run ratios over identical per-op
# workloads: the 50k-connection soak's p999 must stay <= 12x the
# 1k-connection baseline's p999 (a 50x fan-in priced at strongly
# sub-linear tail growth; measured ~8x median on this box), and the
# polled echo sink must show >= 5x goroutine headroom against the
# goroutine-per-connection sink shape on the same 5k-connection
# workload (measured ~1000x: 5001 parked readers vs 5 poll workers).
bench-load:
	$(GO) test -run=NONE -bench='BenchmarkLoadPlane' -benchtime=1x -count=3 . | tee bench_load.txt
	$(GO) run ./cmd/benchjson -in bench_load.txt -out BENCH_10.json

# The acceptance soak: 50,000 concurrent instrumented connections under
# the race detector, multiplexed over a handful of goroutines (the race
# runtime's ~8k goroutine ceiling makes goroutine-per-connection
# impossible — finishing at all is the fabric claim).
soak-load:
	$(GO) test -race -run 'TestSoak50k' -count=1 -v ./internal/load

# Short fuzz pass over the wire round-trip property (CI smoke; the
# seeded corpus also runs as part of plain `go test`).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzStreamRoundTrip -fuzztime=20s ./internal/core/wire

# ~10s per target over the taint map protocol surface — the server-side
# frame parser (including frames in the retired untagged shape, which
# must close the connection) and the blob/id list codecs —
# plus the tier-transition fuzzer, which drives an endpoint pair
# through random density schedules and checks per-byte label
# delivery across encoding switches. `go test` accepts one -fuzz
# pattern per invocation, hence one run per target.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzServeConn -fuzztime=10s ./internal/taintmap
	$(GO) test -run=NONE -fuzz=FuzzParseBlobList -fuzztime=10s ./internal/taintmap
	$(GO) test -run=NONE -fuzz='FuzzClusterServeConn$$' -fuzztime=10s ./internal/taintmap
	$(GO) test -run=NONE -fuzz='FuzzParseRing$$' -fuzztime=5s ./internal/taintmap
	$(GO) test -run=NONE -fuzz='FuzzTierTransition$$' -fuzztime=10s ./internal/instrument
