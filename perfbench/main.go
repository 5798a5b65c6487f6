// Command perfbench benchmarks the NoC simulator end to end.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
//
// It generates a workload's packets from the seed, checks the simulator
// against an exact model on them (zero-load latency, minimal routes,
// every packet delivered intact exactly once, byte-identical results on
// the sharded loop), then builds and simulates the workload repeatedly
// for S seconds on one thread, timing set-up and simulation in process
// CPU time scaled by a reference kernel timed beside them (calib.go).
// The last line of standard output is a JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/network"
	"repro/internal/telemetry"
)

// minReps is the fewest timed simulations a run makes, however short: 40
// leaves ten beyond the 75th percentile that run_p75_ms reports.
const minReps = 40

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// rep is one timed set-up and simulation. Times are in seconds, scaled to
// the nominal host unless named raw.
type rep struct {
	setup  setupTimes
	sim    float64
	rawSim float64
	scale  float64 // the simulation's host-speed factor
	cycles int64

	// Traced runs only.
	allocKB  float64
	counters counters
}

// counters are the simulator's own event counts for one run, read from
// its telemetry probe.
type counters struct {
	linkFlits, switchMoves, arbLosses, creditStalls, delivered int64
}

func readCounters(p *telemetry.Probe) counters {
	c := counters{linkFlits: p.TotalLinkFlits(), delivered: p.TotalDeliveredFlits()}
	for _, rp := range p.Routers {
		c.switchMoves += rp.SwitchMoves
		c.arbLosses += rp.ArbLosses
		c.creditStalls += rp.CreditStalls
	}
	return c
}

func bench(w workload, seed int64, budget time.Duration, trace bool) (result, error) {
	// One thread: the simulator runs its cycle loop unsharded, and the
	// garbage collector shares the same processor, so process CPU time is
	// the cost of the simulation alone.
	runtime.GOMAXPROCS(1)
	in := w.generate(seed)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d tiles, %d packets, %d flits over %d cycles\n",
		w.name, seed, w.tiles(), len(in.events), in.flits, w.cycles)
	l := newLedger(&in)
	res := result{Correct: true, Metrics: map[string]metric{}}
	check := func(what string, err error) {
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		}
	}

	check("zero-load check", zeroLoadCheck(w, seed))
	ref, err := referenceRun(w, l)
	check("reference run", err)
	fp, err := shardedRun(w, l)
	if err == nil && fp != ref {
		err = fmt.Errorf("fingerprint %016x, reference %016x", fp, ref)
	}
	check("sharded run", err)

	var prof bytes.Buffer
	if trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, err
		}
	}
	var reps []rep
	deadline := time.Now().Add(budget)
	for len(reps) < minReps || time.Now().Before(deadline) {
		var probe *telemetry.Probe
		if trace {
			probe = telemetry.New(telemetry.Config{})
		}
		// Collect the previous run's garbage first, so no collection it
		// owes lands inside the timed set-up or simulation.
		runtime.GC()
		var (
			n   *network.Network
			st  setupTimes
			err error
			sm  meter
		)
		sm.time(func() { n, st, err = w.build(1, probe) })
		if err != nil {
			if trace {
				pprof.StopCPUProfile()
			}
			return result{}, err
		}
		l.reset()
		l.attach(n)
		runtime.GC()
		var m0, m1 runtime.MemStats
		if trace {
			runtime.ReadMemStats(&m0)
		}
		m, drained := timedRun(w, n)
		r := rep{setup: st.scaled(sm.scale()), sim: m.scaled(), rawSim: m.work, scale: m.scale(), cycles: n.Kernel().Now()}
		if trace {
			runtime.ReadMemStats(&m1)
			r.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
			r.counters = readCounters(probe)
		}
		fp, err := verify(n, l, drained)
		switch {
		case err != nil:
		case fp != ref:
			err = fmt.Errorf("fingerprint %016x, reference %016x", fp, ref)
		case trace && r.counters.delivered != in.flits:
			err = fmt.Errorf("probe counted %d delivered flits, sent %d", r.counters.delivered, in.flits)
		}
		check(fmt.Sprintf("timed run %d", len(reps)), err)
		reps = append(reps, r)
	}
	if trace {
		pprof.StopCPUProfile()
		cpu, err := breakdown(prof.Bytes())
		if err != nil {
			return result{}, err
		}
		layerMetrics(res.Metrics, reps, cpu)
	} else {
		endToEndMetrics(res.Metrics, reps)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d timed runs, %d of %d checks failed\n", len(reps), res.Failed, res.Attempted)
	return res, nil
}

// each collects one value per run.
func each(reps []rep, f func(r rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func endToEndMetrics(m map[string]metric, reps []rep) {
	sim := each(reps, func(r rep) float64 { return r.sim })
	m["run_ms"] = metric{1e3 * median(sim), "ms"}
	m["run_p75_ms"] = metric{1e3 * quantile(sim, 0.75), "ms"}
	m["cycles_per_s"] = metric{median(each(reps, func(r rep) float64 { return float64(r.cycles) / r.sim })), "1/s"}
	m["setup_s"] = metric{median(each(reps, func(r rep) float64 { return r.setup.total() })), "s"}
}

func layerMetrics(m map[string]metric, reps []rep, cpu cpuBreakdown) {
	ms := func(name string, f func(r rep) float64) {
		m[name] = metric{1e3 * median(each(reps, f)), "ms"}
	}
	ms("topology_ms", func(r rep) float64 { return r.setup.topology })
	ms("route_table_ms", func(r rep) float64 { return r.setup.routeTable })
	ms("network_build_ms", func(r rep) float64 { return r.setup.network })
	ms("traced_run_ms", func(r rep) float64 { return r.sim })
	ms("raw_run_ms", func(r rep) float64 { return r.rawSim })
	m["host_slowdown"] = metric{median(each(reps, func(r rep) float64 { return 1 / r.scale })), "x"}
	// Profile samples are raw CPU time summed over every timed run, so
	// these are means per run, scaled by the run's median host factor.
	scale := median(each(reps, func(r rep) float64 { return r.scale }))
	perRun := func(ns int64) metric { return metric{float64(ns) / 1e6 / float64(len(reps)) * scale, "ms"} }
	for _, ph := range phases {
		m["phase_"+ph+"_ms"] = perRun(cpu.phase[ph])
	}
	for _, ly := range layers {
		m["self_"+ly+"_ms"] = perRun(cpu.layer[ly])
	}
	count := func(name, unit string, f func(r rep) float64) {
		m[name] = metric{median(each(reps, f)), unit}
	}
	m["timed_runs"] = metric{float64(len(reps)), "count"}
	count("cycles", "count", func(r rep) float64 { return float64(r.cycles) })
	count("link_flits", "count", func(r rep) float64 { return float64(r.counters.linkFlits) })
	count("switch_moves", "count", func(r rep) float64 { return float64(r.counters.switchMoves) })
	count("arb_losses", "count", func(r rep) float64 { return float64(r.counters.arbLosses) })
	count("credit_stalls", "count", func(r rep) float64 { return float64(r.counters.creditStalls) })
	count("switch_grant_pct", "%", func(r rep) float64 {
		c := r.counters
		return 100 * float64(c.switchMoves) / float64(c.switchMoves+c.arbLosses)
	})
	count("heap_alloc_kb", "KiB", func(r rep) float64 { return r.allocKB })
}
