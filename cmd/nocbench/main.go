// Command nocbench regenerates the paper-reproduction experiments E1–E20
// (see DESIGN.md for the index). Each experiment prints the paper's claim
// next to the measured value.
//
//	nocbench              # run everything
//	nocbench -run E3      # one experiment
//	nocbench -quick       # shorter measurement windows
//	nocbench -markdown    # emit Markdown (the source of EXPERIMENTS.md)
//	nocbench -parallel 8  # worker-pool width (0 = GOMAXPROCS)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/cmd/internal/obs"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
)

func main() {
	var (
		runID    = flag.String("run", "", "run a single experiment (E1..E20)")
		quick    = flag.Bool("quick", false, "shorter measurement windows")
		markdown = flag.Bool("markdown", false, "emit Markdown tables")
		par      = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		shards   = flag.Int("shards", 1, "intra-cycle shards per simulation, identical results (1 = sequential); composes with -parallel")

		ckptEvery = flag.Int64("checkpoint-every", 0, "unsupported here: nocbench checkpoints at experiment granularity")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for the experiment progress file (completed tables are cached)")
		resume    = flag.Bool("resume", false, "skip experiments already completed per -checkpoint-dir's progress file")
	)
	obsFlags := obs.Register()
	flag.Parse()
	if err := obsFlags.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		os.Exit(1)
	}
	core.SetParallelism(*par)
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "nocbench: -shards must be >= 1; got %d\n", *shards)
		os.Exit(1)
	}
	core.SetShards(*shards)
	if *ckptEvery != 0 {
		fmt.Fprintln(os.Stderr, "nocbench: -checkpoint-every is not supported: experiments own their"+
			" measurement windows, so nocbench checkpoints at experiment granularity"+
			" (-checkpoint-dir/-resume); for cycle-level checkpoints use nocsim or nocsweep")
		os.Exit(1)
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "nocbench: -resume needs -checkpoint-dir")
		os.Exit(1)
	}
	var prog *progress
	if *ckptDir != "" {
		p, err := openProgress(*ckptDir, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocbench:", err)
			os.Exit(1)
		}
		prog = p
	}

	stopProf, err := obsFlags.StartPprof()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocbench:", err)
		os.Exit(1)
	}
	defer stopProf()

	experiments := core.All()
	if *runID != "" {
		e, err := core.ByID(*runID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocbench:", err)
			os.Exit(1)
		}
		experiments = []core.Experiment{e}
	}
	start := time.Now()
	// Experiments run concurrently (each fans its own simulations across
	// the same pool); tables are collected per index and printed in the
	// E1..E20 order regardless of completion order.
	tables := make([]*core.Table, len(experiments))
	errs := make([]error, len(experiments))
	_ = sim.ForEach(len(experiments), core.Parallelism(), func(i int) error {
		if prog != nil {
			if t := prog.lookup(experiments[i].ID, *quick); t != nil {
				tables[i] = t
				return nil
			}
		}
		tables[i], errs[i] = experiments[i].Run(*quick)
		if prog != nil && errs[i] == nil {
			if err := prog.record(experiments[i].ID, *quick, tables[i]); err != nil {
				fmt.Fprintln(os.Stderr, "nocbench: progress:", err)
			}
		}
		return nil
	})
	failed := 0
	for i, e := range experiments {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "nocbench: %s: %v\n", e.ID, errs[i])
			failed++
			continue
		}
		if *markdown {
			fmt.Print(tables[i].Markdown())
		} else {
			fmt.Println(tables[i].Format())
		}
	}
	elapsed := time.Since(start)
	cycles := core.SimulatedCycles()
	fmt.Fprintf(os.Stderr, "%d experiments in %.2fs wall clock, %d simulated cycles (%.2fM cycles/s)\n",
		len(experiments), elapsed.Seconds(), cycles, float64(cycles)/elapsed.Seconds()/1e6)
	if hits, misses := artifact.Stats(); hits+misses > 0 {
		fmt.Fprintf(os.Stderr, "artifact cache: %d hits, %d misses (route tables, topologies, adjacency shared across runs)\n", hits, misses)
	}

	// The experiments own their networks, so telemetry instruments one
	// extra run of the paper's baseline configuration.
	if obsFlags.Enabled() {
		inst := core.DefaultRunParams()
		inst.Rate = 0.3
		inst.Probe = obsFlags.NewProbe()
		var stack *obs.Stack
		inst.OnNetwork = func(n *network.Network, id core.SimSpec) (err error) {
			stack, err = obsFlags.Attach(n, id)
			return err
		}
		if _, err := core.Run(inst); err != nil {
			fmt.Fprintln(os.Stderr, "nocbench: telemetry run:", err)
			os.Exit(1)
		}
		stack.Close()
		fmt.Fprintf(os.Stderr, "telemetry run (baseline %s-%dx%d, rate %.2f):\n",
			inst.Topology, inst.K, inst.K, inst.Rate)
		if err := stack.Emit(os.Stderr, false); err != nil {
			fmt.Fprintln(os.Stderr, "nocbench:", err)
			os.Exit(1)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
