package microbench

import (
	"reflect"
	"testing"

	"dista/internal/core/tracker"
)

// testSize keeps the integration runs fast; the bench harness scales up.
const testSize = 32 << 10

// TestMicroCaseInventory checks the Table II shape (experiment E2): 30
// cases, 22 of them JRE Socket, one group per row of the table.
func TestMicroCaseInventory(t *testing.T) {
	cases := Cases()
	if len(cases) != 30 {
		t.Fatalf("got %d cases, Table II has 30", len(cases))
	}
	seen := make(map[int]bool)
	for i, c := range cases {
		if c.ID != i+1 {
			t.Fatalf("case %d has id %d; ids must be 1..30 in order", i, c.ID)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate id %d", c.ID)
		}
		seen[c.ID] = true
		if c.Name == "" || c.Group == "" || c.Run == nil {
			t.Fatalf("case %d is incomplete: %+v", c.ID, c)
		}
	}
	want := []GroupInfo{
		{Name: "JRE Socket", Count: 22},
		{Name: "JRE Datagram", Count: 1},
		{Name: "JRE SocketChannel", Count: 1},
		{Name: "JRE DatagramChannel", Count: 1},
		{Name: "JRE AsyncSocketChannel", Count: 1},
		{Name: "JRE HTTP", Count: 1},
		{Name: "Netty Socket", Count: 1},
		{Name: "Netty DatagramSocket", Count: 1},
		{Name: "Netty HTTP", Count: 1},
	}
	if got := Groups(); !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
}

func TestCaseByID(t *testing.T) {
	c, ok := CaseByID(27)
	if !ok || c.Group != "JRE HTTP" {
		t.Fatalf("CaseByID(27) = %+v, %v", c, ok)
	}
	if _, ok := CaseByID(99); ok {
		t.Fatal("unknown id must return false")
	}
}

// TestAllCasesDistaSoundAndPrecise is the RQ1 check (experiment E3)
// over the whole micro benchmark: under DisTA, check() observes exactly
// {Data1, Data2} — nothing dropped (soundness), nothing extra
// (precision).
func TestAllCasesDistaSoundAndPrecise(t *testing.T) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			h, err := RunCase(c, tracker.ModeDista, testSize)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"Data1", "Data2"}
			if got := h.SinkTags(); !reflect.DeepEqual(got, want) {
				t.Fatalf("sink tags = %v, want %v", got, want)
			}
		})
	}
}

// TestAllCasesPhosphorLosesTaints confirms the baseline's limitation on
// every case: intra-node-only tracking never reproduces the correct
// {Data1, Data2} answer at check(). Most cases observe nothing (the
// sender's taint is dropped at the JNI boundary); the NIO-based minette
// cases observe a *wrong* stale taint instead, because the reused
// direct buffer keeps the labels of the previous write — exactly the
// "taint of the parameter" flow of Fig. 4.
func TestAllCasesPhosphorLosesTaints(t *testing.T) {
	want := []string{"Data1", "Data2"}
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			h, err := RunCase(c, tracker.ModePhosphor, testSize)
			if err != nil {
				t.Fatal(err)
			}
			if got := h.SinkTags(); reflect.DeepEqual(got, want) {
				t.Fatalf("phosphor produced the correct taints %v; the baseline must be unsound here", got)
			}
			// Data2 is generated on Node2 and can only reach Node1's sink
			// over the network; pure intra-node tracking can never carry it.
			for _, tag := range h.SinkTags() {
				if tag == "Data2" {
					t.Fatal("phosphor mode transported Node2's taint across the wire")
				}
			}
		})
	}
}

// TestAllCasesOffMode confirms every case runs cleanly untracked.
func TestAllCasesOffMode(t *testing.T) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			h, err := RunCase(c, tracker.ModeOff, testSize)
			if err != nil {
				t.Fatal(err)
			}
			if got := h.SinkTags(); len(got) != 0 {
				t.Fatalf("off-mode sink tags = %v", got)
			}
		})
	}
}

// TestWireOverheadFactor is experiment E7 on a stream case, once per
// taint shape: fragmented taint pays the full 5x group factor, uniform
// taint (the paper's Table II payload) rides the uniform tier at the
// payload size plus per-frame metadata.
func TestWireOverheadFactor(t *testing.T) {
	c, _ := CaseByID(1)
	factor := func(h *Harness) float64 {
		t.Helper()
		data1, wire1 := h.Node1.Agent.Traffic()
		data2, wire2 := h.Node2.Agent.Traffic()
		if data1+data2 == 0 {
			t.Fatal("no traffic recorded")
		}
		return float64(wire1+wire2) / float64(data1+data2)
	}

	// Every other byte tainted: only the group codec carries it, so the
	// traffic pays exactly the 5x factor of §V-F plus the stream magic
	// per connection and one 5-byte header per write.
	h, err := RunCaseFragmented(c, tracker.ModeDista, testSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.SinkTags(); len(got) != 2 {
		t.Fatalf("fragmented sink tags = %v, want Data1 and Data2", got)
	}
	if f := factor(h); f < 5.0 || f > 5.01 {
		t.Fatalf("fragmented wire factor = %.4f, want 5.0 plus constant framing (§V-F)", f)
	}

	// Uniform taint: one Global ID per frame instead of per byte.
	h, err = RunCase(c, tracker.ModeDista, testSize)
	if err != nil {
		t.Fatal(err)
	}
	if f := factor(h); f > 1.01 {
		t.Fatalf("uniform wire factor = %.4f, want <= 1.01", f)
	}

	// The off run keeps the factor at 1.
	hOff, err := RunCase(c, tracker.ModeOff, testSize)
	if err != nil {
		t.Fatal(err)
	}
	dOff, wOff := hOff.Node1.Agent.Traffic()
	if dOff != wOff {
		t.Fatalf("off-mode traffic %d/%d, want equal", dOff, wOff)
	}
}

// TestGlobalTaintCountSmallForSDT mirrors the §V-F observation that the
// micro/SDT style workloads register very few global taints (1-6).
func TestGlobalTaintCountSmallForSDT(t *testing.T) {
	c, _ := CaseByID(1)
	h, err := RunCase(c, tracker.ModeDista, testSize)
	if err != nil {
		t.Fatal(err)
	}
	n := h.Store.Stats().GlobalTaints
	if n < 1 || n > 6 {
		t.Fatalf("global taints = %d, want 1..6 like the paper's SDT scenarios", n)
	}
}

// TestSizeDivApplies checks the byte-at-a-time cases shrink their
// payload rather than run size writes.
func TestSizeDivApplies(t *testing.T) {
	c, _ := CaseByID(3)
	if c.SizeDiv <= 1 {
		t.Fatal("single-byte case must declare a size divisor")
	}
	h, err := RunCase(c, tracker.ModeDista, 64*64)
	if err != nil {
		t.Fatal(err)
	}
	if h.Size != 64 {
		t.Fatalf("harness size = %d, want 64", h.Size)
	}
}

func TestHarnessPayloads(t *testing.T) {
	h := NewHarness(tracker.ModeDista, 8)
	d1 := h.Data1(8)
	d2 := h.Data2(8)
	if d1.Len() != 8 || d2.Len() != 8 {
		t.Fatalf("sizes %d/%d", d1.Len(), d2.Len())
	}
	if !d1.Union().Has("Data1") || !d2.Union().Has("Data2") {
		t.Fatal("payloads must carry their source tags")
	}
	if d1.Data[0] == d2.Data[0] {
		t.Fatal("payload fill patterns must differ")
	}
	// Off-mode payloads stay clean.
	off := NewHarness(tracker.ModeOff, 8)
	if off.Data1(8).HasShadow() {
		t.Fatal("off-mode payload must be shadow-free")
	}
}

func TestHarnessCheckTaints(t *testing.T) {
	h := NewHarness(tracker.ModeDista, 4)
	h.CheckTaints(h.Data1Taint(), h.Data2Taint())
	want := []string{"Data1", "Data2"}
	if got := h.SinkTags(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tags = %v", got)
	}
}
