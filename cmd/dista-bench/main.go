// Command dista-bench regenerates the paper's evaluation artifacts:
//
//	-table 1      Table I  (instrumented methods; same as dista-methods)
//	-table 2      Table II (micro benchmark case inventory)
//	-table 5      Table V  (micro benchmark runtime overhead)
//	-table 6      Table VI (real-system runtime overhead, SDT and SIM)
//	-taintcount   §V-F global-taint analysis (SDT vs SIM)
//	-network      §V-F network-overhead measurement (~5x prediction)
//	-all          everything above
//
// Scale knobs: -size (micro payload), -iters (micro repetitions),
// -messages/-msgsize/-jobs/-samples (system workloads).
package main

import (
	"flag"
	"fmt"
	"os"

	"dista/internal/bench"
	"dista/internal/core/tracker"
	"dista/internal/instrument"
	"dista/internal/microbench"
)

func main() {
	var (
		table      = flag.Int("table", 0, "table to regenerate: 1, 2, 5 or 6")
		taintCount = flag.Bool("taintcount", false, "print the SDT-vs-SIM global taint analysis")
		network    = flag.Bool("network", false, "print the network-overhead measurement")
		ablation   = flag.Bool("ablation", false, "run the design-choice ablations (caching, wire format)")
		memory     = flag.Bool("memory", false, "measure shadow-memory overhead (Phosphor's 1x-8x band)")
		all        = flag.Bool("all", false, "regenerate everything")

		size  = flag.Int("size", 512<<10, "micro-benchmark payload bytes per side")
		iters = flag.Int("iters", 3, "micro-benchmark repetitions per mode")

		messages = flag.Int("messages", 30, "messages/rows per system workload")
		msgSize  = flag.Int("msgsize", 32<<10, "system workload payload bytes")
		jobs     = flag.Int("jobs", 3, "MapReduce jobs")
		samples  = flag.Int64("samples", 100_000, "MapReduce Pi samples per job")
	)
	flag.Parse()

	cfg := bench.SystemConfig{
		MsgSize:   *msgSize,
		Messages:  *messages,
		PiSamples: *samples,
		Jobs:      *jobs,
	}
	if err := run(*table, *taintCount, *network, *ablation, *memory, *all, *size, *iters, cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(table int, taintCount, network, ablation, memory, all bool, size, iters int, cfg bench.SystemConfig) error {
	ran := false
	if all || table == 1 {
		printTableI()
		ran = true
	}
	if all || table == 2 {
		bench.WriteTableII(os.Stdout)
		fmt.Println()
		ran = true
	}
	if all || table == 5 {
		fmt.Printf("(measuring %d cases x 3 modes, %d bytes per side, %d iters)\n", len(microbench.Cases()), size, iters)
		rows, err := bench.MeasureAllCases(size, iters)
		if err != nil {
			return err
		}
		bench.WriteTableV(os.Stdout, bench.SummarizeTableV(rows))
		fmt.Println()
		ran = true
	}

	var sysRows []bench.SystemRow
	needSystems := all || table == 6 || taintCount
	if needSystems {
		dir, err := os.MkdirTemp("", "dista-bench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		fmt.Printf("(measuring 5 systems x 5 mode/scenario cells, %d messages of %d bytes)\n", cfg.Messages, cfg.MsgSize)
		if sysRows, err = bench.MeasureSystems(cfg, dir); err != nil {
			return err
		}
	}
	if all || table == 6 {
		bench.WriteTableVI(os.Stdout, sysRows)
		fmt.Println()
		ran = true
	}
	if all || taintCount {
		bench.WriteTaintCounts(os.Stdout, sysRows)
		fmt.Println()
		ran = true
	}
	if all || network {
		if err := printNetworkOverhead(size); err != nil {
			return err
		}
		ran = true
	}
	if all || ablation {
		if err := bench.WriteAblations(os.Stdout, size, iters); err != nil {
			return err
		}
		fmt.Println()
		ran = true
	}
	if all || memory {
		bench.WriteMemoryOverhead(os.Stdout, 32, 64<<10)
		fmt.Println()
		ran = true
	}
	if !ran {
		return fmt.Errorf("dista-bench: nothing selected; use -table N, -taintcount, -network, -ablation, -memory or -all")
	}
	return nil
}

func printTableI() {
	fmt.Println("TABLE I: INSTRUMENTED METHODS AND THEIR TYPES")
	fmt.Printf("%-40s %-24s %s\n", "Class", "Method", "Type")
	for _, m := range instrument.Registry {
		fmt.Printf("%-40s %-24s %s\n", m.Class, m.Name, m.Type)
	}
	fmt.Println()
}

// printNetworkOverhead measures payload-vs-wire bytes on the Table II
// case 1 stream exchange (experiment E7), untracked and tracked, with
// uniformly tainted payloads (the paper's workload, carried on the
// uniform tier) and with fragmented ones (every other byte tainted,
// which only the 5x group codec carries).
func printNetworkOverhead(size int) error {
	fmt.Println("NETWORK OVERHEAD (§V-F: \"about 5X\")")
	c, _ := microbench.CaseByID(1)
	for _, row := range []struct {
		mode  tracker.Mode
		shape string
		run   func(microbench.Case, tracker.Mode, int) (*microbench.Harness, error)
	}{
		{tracker.ModeOff, "uniform", microbench.RunCase},
		{tracker.ModeDista, "uniform", microbench.RunCase},
		{tracker.ModeDista, "fragmented", microbench.RunCaseFragmented},
	} {
		h, err := row.run(c, row.mode, size)
		if err != nil {
			return err
		}
		d1, w1 := h.Node1.Agent.Traffic()
		d2, w2 := h.Node2.Agent.Traffic()
		fmt.Printf("mode %-8s taint %-10s payload %8d B   wire %8d B   factor %.4fx\n",
			row.mode, row.shape, d1+d2, w1+w2, float64(w1+w2)/float64(d1+d2))
	}
	fmt.Println()
	return nil
}
