package taintmap

import (
	"errors"
	"testing"
	"time"

	"dista/internal/netsim"
)

func TestBudgetBurstThenDeny(t *testing.T) {
	clk := netsim.NewVirtualClock()
	b := newBudgetClock(10, 3, clk)
	for i := 0; i < 3; i++ {
		if !b.TryTake(1) {
			t.Fatalf("take %d refused inside burst", i)
		}
	}
	if b.TryTake(1) {
		t.Fatalf("take granted with empty bucket and no time passed")
	}
	if got := b.Denied(); got != 1 {
		t.Fatalf("Denied() = %d, want 1", got)
	}
	if got := b.Taken(); got != 3 {
		t.Fatalf("Taken() = %d, want 3", got)
	}
}

func TestBudgetRefill(t *testing.T) {
	clk := netsim.NewVirtualClock()
	b := newBudgetClock(10, 5, clk) // 10 tokens/s, capacity 5
	for i := 0; i < 5; i++ {
		if !b.TryTake(1) {
			t.Fatalf("burst take %d refused", i)
		}
	}
	// 100ms refills exactly one token.
	clk.Advance(100 * time.Millisecond)
	if !b.TryTake(1) {
		t.Fatalf("take refused after one token refilled")
	}
	if b.TryTake(1) {
		t.Fatalf("second take granted from a single refilled token")
	}
	// A long idle period caps at burst, not rate*elapsed.
	clk.Advance(time.Hour)
	if got := b.Tokens(); got != 5 {
		t.Fatalf("Tokens() after long idle = %v, want capped at 5", got)
	}
	for i := 0; i < 5; i++ {
		if !b.TryTake(1) {
			t.Fatalf("post-idle take %d refused", i)
		}
	}
	if b.TryTake(1) {
		t.Fatalf("take granted beyond the burst cap")
	}
}

func TestBudgetNilAlwaysAllows(t *testing.T) {
	var b *Budget
	if !b.TryTake(1) {
		t.Fatalf("nil budget refused a take")
	}
	if b.Denied() != 0 || b.Taken() != 0 || b.Tokens() != 0 {
		t.Fatalf("nil budget reported non-zero counters")
	}
	if newBudgetClock(0, 10, netsim.NewVirtualClock()) != nil {
		t.Fatalf("zero rate did not disable the budget")
	}
	if newBudgetClock(10, -1, netsim.NewVirtualClock()) != nil {
		t.Fatalf("negative burst did not disable the budget")
	}
}

func TestBudgetExhaustedMatchesDegraded(t *testing.T) {
	if !errors.Is(ErrBudgetExhausted, ErrDegraded) {
		t.Fatalf("ErrBudgetExhausted must match ErrDegraded under errors.Is")
	}
}

func TestBudgetFractionalTake(t *testing.T) {
	clk := netsim.NewVirtualClock()
	b := newBudgetClock(1, 1, clk)
	if !b.TryTake(1) {
		t.Fatalf("initial take refused")
	}
	clk.Advance(500 * time.Millisecond)
	if b.TryTake(1) {
		t.Fatalf("whole token granted after half a refill")
	}
	if !b.TryTake(0.5) {
		t.Fatalf("half token refused after half a refill")
	}
}
