package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dista/internal/core/tracker"
	"dista/internal/microbench"
)

// paperSize is the payload per side of one Figure 10 exchange.
const paperSize = 64 << 10

var paperMicro = &workload{
	name:     "paper-micro",
	members:  1,
	sessions: 1,
	warm:     30,
	ops:      1020, // 34 whole sweeps
	build:    buildPaper,
}

// buildPaper runs the 30 Table II cases on one long-lived rig: a
// microbench.Harness over the benchmark's own jre.Envs, whose agents
// reach the standalone Taint Map at tm:1. One op is one Figure 10
// exchange; op i runs case (seed + i) mod 30, so a sweep walks the cases
// in ID order.
func buildPaper(st *stack, mode tracker.Mode, seed int64, _ int, tr []*sessTrace) (*rig, error) {
	var ts *sessTrace
	if tr != nil {
		ts = tr[0]
	}
	client := ts.side()
	node1, err := st.env("node1", mode, client)
	if err != nil {
		return nil, err
	}
	node2, err := st.env("node2", mode, ts.side())
	if err != nil {
		return nil, err
	}
	h := &microbench.Harness{Net: st.net, Node1: node1, Node2: node2}
	cases := microbench.Cases()
	offset := int(uint64(seed) % uint64(len(cases)))
	seen := 0 // sink observations already checked
	run := func(i int) opResult {
		c := cases[(offset+i)%len(cases)]
		// Scaled exactly as microbench.RunCase scales it.
		h.Size = paperSize
		if c.SizeDiv > 1 {
			h.Size = max(paperSize/c.SizeDiv, 1)
		}
		res := opResult{group: c.Group, path: pathStream}
		if strings.Contains(c.Group, "Datagram") {
			res.path = pathDatagram
		}
		d1, _ := node1.Agent.Traffic()
		d2, _ := node2.Agent.Traffic()
		id, at := client.startOp(int64(i))
		t0 := time.Now()
		err := c.Run(h)
		res.lat = time.Since(t0)
		client.endOp(id, at)
		e1, _ := node1.Agent.Traffic()
		e2, _ := node2.Agent.Traffic()
		res.data = e1 - d1 + e2 - d2
		if err != nil {
			res.fail = fmt.Sprintf("case %d: %v", c.ID, err)
			return res
		}
		if mode == tracker.ModeOff {
			return res
		}
		// RQ1 oracle: check() must observe exactly {Data1, Data2}.
		obs := node1.Agent.Observations()
		tags := map[string]bool{}
		for _, o := range obs[seen:] {
			if o.Sink == microbench.SinkCheck {
				for _, v := range o.Taint.Values() {
					tags[v] = true
				}
			}
		}
		seen = len(obs)
		if len(tags) != 2 || !tags["Data1"] || !tags["Data2"] {
			got := make([]string, 0, len(tags))
			for v := range tags {
				got = append(got, v)
			}
			sort.Strings(got)
			res.fail = fmt.Sprintf("case %d: check() observed %v, want [Data1 Data2]", c.ID, got)
		}
		return res
	}
	return &rig{sessions: []func(int) opResult{run}, close: func() {}}, nil
}
