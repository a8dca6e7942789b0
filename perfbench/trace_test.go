package main

import (
	"sync"
	"testing"
)

func TestSelfTimeNested(t *testing.T) {
	// op [0,100) has children send [10,30) and recv [30,90); recv has two
	// overlapping Taint Map calls [40,60) and [50,70) plus one sticking
	// out past its end [85,95).
	spans := []span{
		{id: 1, name: spanOp, start: 0, end: 100},
		{id: 2, parent: 1, name: spanSend, start: 10, end: 30},
		{id: 3, parent: 1, name: spanRecv, start: 30, end: 90},
		{id: 4, parent: 3, name: spanLookup, start: 40, end: 60},
		{id: 5, parent: 3, name: spanLookup, start: 50, end: 70},
		{id: 6, parent: 3, name: spanRegister, start: 85, end: 95},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 80, 2: 20, 3: 60 - 30 - 5, 4: 20, 5: 20, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(span %d) = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeConcurrentSessions(t *testing.T) {
	// Two sessions overlap in time. Session A's op [0,100) has one child
	// [20,40); session B's op [10,110) has children [30,80) and a peer
	// span [70,90). B's spans must not be subtracted from A's, although
	// they overlap A's interval.
	spans := []span{
		{id: 1, op: 1, name: spanOp, start: 0, end: 100},
		{id: 2, op: 1, parent: 1, name: spanSend, start: 20, end: 40},
		{id: 3, op: 2, name: spanOp, start: 10, end: 110},
		{id: 4, op: 2, parent: 3, name: spanRecv, start: 30, end: 80},
		{id: 5, op: 2, parent: 3, name: spanPeerSend, start: 70, end: 90},
	}
	self := selfTimes(spans)
	if self[1] != 80 {
		t.Errorf("session A op self = %d, want 80", self[1])
	}
	if self[3] != 100-60 {
		t.Errorf("session B op self = %d, want 40", self[3])
	}
}

func TestSidesRecordParentsAcrossGoroutines(t *testing.T) {
	// Two sessions, each with a client and a peer goroutine, record spans
	// concurrently; every span must hang under its own session's op.
	tr := newTracer()
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		ts := &sessTrace{tr: tr}
		client, peer := ts.side(), ts.side()
		wg.Add(1)
		go func(op int64) {
			defer wg.Done()
			for k := int64(0); k < 50; k++ {
				id, at := client.startOp(op*1000 + k)
				client.call(spanSend, func() error { return nil })
				done := make(chan struct{})
				client.call(spanRecv, func() error {
					go func() {
						peer.call(spanPeerRecv, func() error {
							return peer.call(spanLookup, func() error { return nil })
						})
						close(done)
					}()
					<-done
					return nil
				})
				client.endOp(id, at)
			}
		}(int64(s + 1))
	}
	wg.Wait()
	byID := map[int64]span{}
	for _, s := range tr.take() {
		byID[s.id] = s
	}
	for _, s := range byID {
		if s.name == spanOp {
			continue
		}
		p, ok := byID[s.parent]
		if !ok {
			t.Fatalf("span %s has no recorded parent", s.name)
		}
		if p.op != s.op {
			t.Errorf("span %s of op %d hangs under op %d", s.name, s.op, p.op)
		}
		if s.name == spanPeerRecv && p.name != spanRecv {
			t.Errorf("peer span parent = %s, want the client's open %s", p.name, spanRecv)
		}
	}
}
