// Command nocsweep runs a load–latency sweep and emits CSV, the data
// behind figures like E4's curves.
//
//	nocsweep -topo torus -k 8 -flits 4 > torus.csv
//	nocsweep -topo mesh -k 8 -rates 0.1,0.2,0.3,0.4,0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/cmd/internal/obs"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/network"
)

func main() {
	var (
		topoName = flag.String("topo", "torus", "topology: torus or mesh")
		k        = flag.Int("k", 4, "radix (k x k tiles)")
		pattern  = flag.String("pattern", "uniform", "traffic pattern")
		flits    = flag.Int("flits", 1, "flits per packet")
		rateList = flag.String("rates", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", "comma-separated offered loads")
		warmup   = flag.Int64("warmup", 1000, "warmup cycles")
		measure  = flag.Int64("measure", 4000, "measurement cycles")
		seed     = flag.Int64("seed", 1, "random seed")
		par      = flag.Int("parallel", 0, "concurrent sweep points (0 = GOMAXPROCS)")
		shards   = flag.Int("shards", 1, "intra-cycle shards per simulation, identical results (1 = sequential); composes with -parallel")
		replicas = flag.Int("replicas", 1, "measurement replicas per point, warm-forked from one shared warmup (replica seeds derive from -seed; 1 = single measurement)")

		ckptEvery = flag.Int64("checkpoint-every", 0, "checkpoint every sweep point every N cycles (0 disables; needs -checkpoint-dir)")
		ckptDir   = flag.String("checkpoint-dir", "", "checkpoint root; each point uses its own point-NNN subdirectory")
		resume    = flag.Bool("resume", false, "resume every point from its newest valid checkpoint under -checkpoint-dir")
	)
	obsFlags := obs.Register()
	flag.Parse()
	if err := obsFlags.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "nocsweep:", err)
		os.Exit(1)
	}
	core.SetParallelism(*par)
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "nocsweep: -shards must be >= 1; got %d\n", *shards)
		os.Exit(1)
	}
	core.SetShards(*shards)
	if *ckptEvery < 0 {
		fmt.Fprintf(os.Stderr, "nocsweep: -checkpoint-every must be >= 0 cycles; got %d\n", *ckptEvery)
		os.Exit(1)
	}
	if (*ckptEvery > 0 || *resume) && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "nocsweep: -checkpoint-every/-resume need -checkpoint-dir")
		os.Exit(1)
	}
	if *replicas < 1 {
		fmt.Fprintf(os.Stderr, "nocsweep: -replicas must be >= 1; got %d\n", *replicas)
		os.Exit(1)
	}
	if *replicas > 1 && (*ckptEvery > 0 || *resume || *ckptDir != "") {
		fmt.Fprintln(os.Stderr, "nocsweep: -replicas forks warmups in memory and does not compose with disk checkpointing flags")
		os.Exit(1)
	}

	base := core.DefaultRunParams()
	base.Topology = *topoName
	base.K = *k
	base.Pattern = *pattern
	base.FlitsPerPacket = *flits
	base.WarmupCycles = *warmup
	base.MeasureCycles = *measure
	base.Seed = *seed
	base.CheckpointEvery = *ckptEvery
	base.CheckpointDir = *ckptDir
	base.Resume = *resume

	var rates []float64
	for _, s := range strings.Split(*rateList, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nocsweep: bad rate %q\n", s)
			os.Exit(1)
		}
		point := base
		point.Rate = v
		if err := point.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "nocsweep:", err)
			os.Exit(1)
		}
		rates = append(rates, v)
	}
	if len(rates) == 0 {
		fmt.Fprintln(os.Stderr, "nocsweep: -rates is empty; nothing to sweep")
		os.Exit(1)
	}

	stopProf, err := obsFlags.StartPprof()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocsweep:", err)
		os.Exit(1)
	}
	defer stopProf()

	start := time.Now()

	var points []core.SweepPoint
	if *replicas > 1 {
		// Replicated mode: every point runs one shared warmup and forks
		// each measurement window from its in-memory snapshot. The CSV
		// gains a replica column; the saturation estimate uses per-point
		// means.
		rpts, err := core.SweepReplicated(base, rates, *replicas)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocsweep:", err)
			os.Exit(1)
		}
		fmt.Println("offered,replica,accepted,avg_latency,p50,p99,max,util_mean,util_max")
		for _, pt := range rpts {
			for ri, r := range pt.Replicas {
				fmt.Printf("%.3f,%d,%.4f,%.2f,%d,%d,%d,%.4f,%.4f\n",
					pt.Rate, ri, r.AcceptedFlits, r.AvgLatency, r.P50Latency, r.P99Latency,
					r.MaxLatency, r.LinkUtilMean, r.LinkUtilMax)
			}
			points = append(points, core.SweepPoint{Rate: pt.Rate, Result: pt.Mean()})
		}
	} else {
		var err error
		points, err = core.Sweep(base, rates)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nocsweep:", err)
			os.Exit(1)
		}
		fmt.Println("offered,accepted,avg_latency,p50,p99,max,util_mean,util_max")
		for _, pt := range points {
			r := pt.Result
			fmt.Printf("%.3f,%.4f,%.2f,%d,%d,%d,%.4f,%.4f\n",
				pt.Rate, r.AcceptedFlits, r.AvgLatency, r.P50Latency, r.P99Latency,
				r.MaxLatency, r.LinkUtilMean, r.LinkUtilMax)
		}
	}
	fmt.Fprintf(os.Stderr, "saturation ≈ %.3f flits/node/cycle\n", core.SaturationRate(points))
	elapsed := time.Since(start)
	cycles := core.SimulatedCycles()
	measurements := len(points) * *replicas
	fmt.Fprintf(os.Stderr, "%d points × %d replicas in %.2fs wall clock (%.2f points/s), %d simulated cycles (%.2fM cycles/s)\n",
		len(points), *replicas, elapsed.Seconds(), float64(measurements)/elapsed.Seconds(),
		cycles, float64(cycles)/elapsed.Seconds()/1e6)
	if hits, misses := artifact.Stats(); hits+misses > 0 {
		fmt.Fprintf(os.Stderr, "artifact cache: %d hits, %d misses\n", hits, misses)
	}

	// Sweep points run concurrently on throwaway networks, so telemetry
	// instruments one extra sequential run at the heaviest load instead.
	if obsFlags.Enabled() {
		inst := base
		inst.Rate = rates[len(rates)-1]
		for _, r := range rates {
			if r > inst.Rate {
				inst.Rate = r
			}
		}
		inst.Probe = obsFlags.NewProbe()
		// The instrumentation run is throwaway: never checkpoint it.
		inst.CheckpointEvery, inst.CheckpointDir, inst.Resume = 0, "", false
		var stack *obs.Stack
		inst.OnNetwork = func(n *network.Network, id core.SimSpec) (err error) {
			stack, err = obsFlags.Attach(n, id)
			return err
		}
		if _, err := core.Run(inst); err != nil {
			fmt.Fprintln(os.Stderr, "nocsweep: telemetry run:", err)
			os.Exit(1)
		}
		stack.Close()
		fmt.Fprintf(os.Stderr, "telemetry run at rate %.3f:\n", inst.Rate)
		if err := stack.Emit(os.Stderr, false); err != nil {
			fmt.Fprintln(os.Stderr, "nocsweep:", err)
			os.Exit(1)
		}
	}
}
