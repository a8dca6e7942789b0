package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"dista/internal/core/tracker"
	"dista/internal/microbench"
)

// Round kinds of the traced run, interleaved after their own warm-up.
const (
	kindTracked = iota // DisTA, untraced: the reference the others divide by
	kindOff            // tracker.ModeOff, the same seeded op sequence: bare forwarding
	kindTraced         // DisTA with the decorator, hooks and counting conns installed
	numKinds
)

// noiseFloor is the smallest noise band the harness-sanity check allows.
const noiseFloor = 0.05

// traced runs the three round kinds in rotating order until the budget
// is spent, then derives every per-layer metric.
func traced(w *workload, seed int64, budget time.Duration, spanDir string) (result, error) {
	var byKind [numKinds][]*round
	var t tally
	start := time.Now()
	if err := warmProcess(w, seed, &t); err != nil {
		return result{}, err
	}
	for cycle := 0; ; cycle++ {
		for k := 0; k < numKinds; k++ {
			kind := (k + cycle) % numKinds
			mode := tracker.ModeDista
			if kind == kindOff {
				mode = tracker.ModeOff
			}
			var p *probe
			if kind == kindTraced {
				p = newProbe()
			}
			r, err := runRound(w, mode, p, seed, len(byKind[kind]))
			if err != nil {
				return result{}, err
			}
			if kind == kindTraced && len(byKind[kind]) > 0 {
				byKind[kind][len(byKind[kind])-1].spans = nil // only the last round's spans are written out
			}
			byKind[kind] = append(byKind[kind], r)
			t.add(r)
		}
		if time.Since(start) >= budget && cycle+1 >= minRounds {
			break
		}
	}
	logFailures(&t)
	tracked, off, trc := byKind[kindTracked], byKind[kindOff], byKind[kindTraced]
	if spanDir != "" {
		last := trc[len(trc)-1]
		if err := writeSpans(spanFile(spanDir, w.name, seed), last.spans); err != nil {
			return result{}, err
		}
	}

	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	perOp := func(rs []*round, f func(r *round) float64) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, f(r)/float64(r.ops))
		}
		return median(xs)
	}
	med := func(rs []*round, f func(r *round) float64) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	meanLat := func(r *round) float64 { return r.mean }

	trackedUs, offUs, tracedUs := med(tracked, meanLat), med(off, meanLat), med(trc, meanLat)
	tmUs := perOp(trc, func(r *round) float64 { return r.sp.tmBusy / 1e3 })
	set("jre.untracked_us_per_op", offUs, "us")
	set("instrument.tracking_us_per_op", trackedUs-offUs-tmUs, "us")
	set("instrument.overhead_x", trackedUs/offUs, "x")
	set("trace.overhead_x", tracedUs/trackedUs, "x")

	// jre and Taint Map spans of the traced rounds.
	trcOps := 0
	var jreSelf, tmBusy, opTime float64
	for _, r := range trc {
		trcOps += r.ops
		jreSelf += r.sp.jreSelf
		tmBusy += r.sp.tmBusy
		opTime += r.sp.opTime
	}
	set("jre.send_us_p50", med(trc, func(r *round) float64 { return r.sp.sendP50 }), "us")
	set("jre.recv_us_p50", med(trc, func(r *round) float64 { return r.sp.recvP50 }), "us")
	set("jre.self_us_per_op", jreSelf/1e3/float64(trcOps), "us")
	set("taintmap.register_us_p50", med(trc, func(r *round) float64 { return r.sp.registerP50 }), "us")
	set("taintmap.lookup_us_p50", med(trc, func(r *round) float64 { return r.sp.lookupP50 }), "us")
	set("taintmap.lookup_us_p99", med(trc, func(r *round) float64 { return r.sp.lookupP99 }), "us")
	set("taintmap.busy_share", ratio(tmBusy, opTime), "fraction")

	// Probe counters of the traced rounds.
	var pc counts
	for _, r := range trc {
		pc.add(r.probe, 1)
	}
	ops := float64(trcOps)
	perTrcOp := func(n int64) float64 { return float64(n) / ops }
	set("taintmap.register_calls_per_op", perTrcOp(pc[registerCalls]), "calls")
	set("taintmap.lookup_calls_per_op", perTrcOp(pc[lookupCalls]), "calls")
	set("taintmap.items_per_call", ratio(float64(pc[registerItems]+pc[lookupItems]), float64(pc[registerCalls]+pc[lookupCalls])), "items")
	memo := 0.0
	if pc[lookupItems] > 0 {
		memo = 1 - float64(pc.server(serverItems, "LM"))/float64(pc[lookupItems])
	}
	set("taintmap.memo_hit_share", memo, "fraction")
	// Untagged request op bytes: R/B register, L/M lookup, P/W replicate
	// and read-repair between members.
	set("taintmap.server_reqs_per_op", perTrcOp(pc.server(serverReqs, "")), "requests")
	set("taintmap.server_reqs.register_per_op", perTrcOp(pc.server(serverReqs, "RB")), "requests")
	set("taintmap.server_reqs.lookup_per_op", perTrcOp(pc.server(serverReqs, "LM")), "requests")
	set("taintmap.server_reqs.replicate_per_op", perTrcOp(pc.server(serverReqs, "PW")), "requests")
	set("taintmap.rpc_bytes_per_op", perTrcOp(pc[rpcBytes]), "bytes")
	set("taintmap.rpc_writes_per_op", perTrcOp(pc[rpcWrites]), "writes")
	set("taintmap.client_errors", float64(pc[clientErrors]), "count")

	// Wire factors: netsim bytes minus the Taint Map's own connections,
	// over the payload bytes of ops that took each path.
	var streamNet, dgNet, streamData, dgData int64
	for _, r := range trc {
		streamNet += r.net.streamBytes
		dgNet += r.net.datagramBytes
		streamData += r.pathData[pathStream]
		dgData += r.pathData[pathDatagram]
	}
	set("wire.stream_x", ratio(float64(streamNet-pc[rpcBytes]-pc[peerBytes]), float64(streamData)), "ratio")
	set("wire.datagram_x", ratio(float64(dgNet), float64(dgData)), "ratio")

	// Program state and runtime counters of the untraced tracked rounds.
	set("taintmap.global_taints_per_op", perOp(tracked, func(r *round) float64 { return float64(r.globalTaints) }), "taints")
	set("taint.tree_nodes_per_op", perOp(tracked, func(r *round) float64 { return float64(r.treeNodes) }), "nodes")
	set("netsim.bytes_per_op", perOp(tracked, func(r *round) float64 { return float64(r.net.streamBytes + r.net.datagramBytes) }), "bytes")
	set("netsim.datagrams_per_op", perOp(tracked, func(r *round) float64 { return float64(r.net.datagrams) }), "datagrams")
	var lost int64
	for _, r := range tracked {
		lost += r.net.lost
	}
	set("netsim.datagrams_lost", float64(lost), "count")
	set("runtime.alloc_bytes_per_op", perOp(tracked, func(r *round) float64 { return float64(r.allocBytes) }), "bytes")
	set("runtime.gc_cycles_per_kop", perOp(tracked, func(r *round) float64 { return 1000 * float64(r.gcCycles) }), "cycles")

	// Harness sanity: tracked must not beat untracked beyond the noise of
	// the untracked rounds themselves.
	band := noiseBand(off)
	var faults []string
	if trackedUs/offUs < 1-band {
		faults = append(faults, fmt.Sprintf("%s tracked/untracked %.3f", w.name, trackedUs/offUs))
	}
	for _, g := range microbench.Groups() {
		x := groupOverhead(tracked, off, g.Name)
		set("microbench."+groupKey(g.Name)+".overhead_x", x, "x")
		if x > 0 && x < 1-band {
			faults = append(faults, fmt.Sprintf("%s tracked/untracked %.3f", g.Name, x))
		}
	}
	for _, f := range faults {
		fmt.Fprintf(os.Stderr, "perfbench: harness fault (noise band %.3f): %s\n", band, f)
	}
	set("harness.sanity_faults", float64(len(faults)), "count")
	set("oracle.fail_share", failShare(&t), "fraction")
	fmt.Fprintf(os.Stderr, "perfbench: %s traced run: %d/%d/%d tracked/untracked/traced rounds\n",
		w.name, len(tracked), len(off), len(trc))
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// spanStats summarizes one traced round's spans.
type spanStats struct {
	sendP50, recvP50                  float64 // client jre calls, us
	registerP50, lookupP50, lookupP99 float64 // Taint Map client calls, us
	jreSelf, tmBusy, opTime           float64 // summed ns
}

func summarizeSpans(spans []span) spanStats {
	var send, recv, reg, look []int64
	var st spanStats
	self := selfTimes(spans)
	for _, s := range spans {
		switch s.name {
		case spanSend:
			send = append(send, s.dur())
		case spanRecv:
			recv = append(recv, s.dur())
		case spanRegister:
			reg = append(reg, s.dur())
		case spanLookup:
			look = append(look, s.dur())
		case spanOp:
			st.opTime += float64(s.dur())
		}
		switch s.name {
		case spanSend, spanRecv:
			st.jreSelf += float64(self[s.id])
		case spanRegister, spanLookup:
			st.tmBusy += float64(s.dur())
		}
	}
	st.sendP50, st.recvP50 = nsQuantile(send, 0.5), nsQuantile(recv, 0.5)
	st.registerP50, st.lookupP50, st.lookupP99 = nsQuantile(reg, 0.5), nsQuantile(look, 0.5), nsQuantile(look, 0.99)
	return st
}

// nsQuantile returns the q-quantile of ns durations, in microseconds.
func nsQuantile(ns []int64, q float64) float64 {
	ds := make([]time.Duration, len(ns))
	for i, n := range ns {
		ds[i] = time.Duration(n)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return us(quantile(ds, q))
}

// noiseBand is the relative spread (quartile distance over median) of
// the untracked rounds' mean op time, floored at noiseFloor.
func noiseBand(off []*round) float64 {
	var xs []float64
	for _, r := range off {
		xs = append(xs, r.mean)
	}
	sort.Float64s(xs)
	if len(xs) < 4 {
		return noiseFloor
	}
	q1, q3 := xs[len(xs)/4], xs[(3*len(xs))/4]
	return max(noiseFloor, (q3-q1)/median(xs))
}

// groupOverhead is the median tracked case time of a Table V group over
// its median untracked case time; 0 when the workload ran no such case.
func groupOverhead(tracked, off []*round, group string) float64 {
	times := func(rs []*round) []float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, r.groupLat[group]...)
		}
		return xs
	}
	t, o := times(tracked), times(off)
	if len(t) == 0 || len(o) == 0 {
		return 0
	}
	return median(t) / median(o)
}

// groupKey turns "JRE DatagramChannel" into "jre_datagramchannel".
func groupKey(g string) string {
	return strings.ToLower(strings.ReplaceAll(g, " ", "_"))
}
