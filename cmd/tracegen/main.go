// Command tracegen synthesizes *input traffic* traces in the nocsim trace
// format — one "cycle src dst bytes class" line per packet injection —
// for replay with `nocsim -trace`. This is the workload fed INTO the
// simulator.
//
// It is unrelated to the *execution* trace the simulator writes OUT with
// `-tracefile-out`: that file is Chrome trace-event JSON recording what
// happened to each packet (inject, route, arbitrate, traverse, eject),
// produced by internal/telemetry and viewed in chrome://tracing or
// Perfetto. The README's "Observability" section documents both formats
// side by side.
//
//	tracegen -k 4 -cycles 1000 -rate 0.2 -pattern uniform > uniform.trace
//	nocsim -trace uniform.trace -heatmap -metrics -tracefile-out exec.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	var (
		k       = flag.Int("k", 4, "radix (k x k tiles)")
		cycles  = flag.Int64("cycles", 1000, "trace horizon in cycles")
		rate    = flag.Float64("rate", 0.1, "packets per cycle per tile")
		pattern = flag.String("pattern", "uniform", "traffic pattern")
		nbytes  = flag.Int("bytes", 32, "payload bytes per packet")
		class   = flag.Int("class", 0, "service class")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	// One tile has no destination to pick, and nocsim -trace refuses any
	// event above the trace format's payload cap.
	if *k < 2 {
		fatal(fmt.Errorf("-k must be >= 2; got %d", *k))
	}
	if *nbytes < 0 || *nbytes > traffic.MaxTraceBytes {
		fatal(fmt.Errorf("-bytes must be in [0, %d]; got %d", traffic.MaxTraceBytes, *nbytes))
	}
	p, err := traffic.ByName(*pattern, *k, *k)
	if err != nil {
		fatal(err)
	}
	rng := sim.NewStream(*seed, sim.TrafficStream)
	tiles := *k * *k
	var events []traffic.Event
	for cycle := int64(0); cycle < *cycles; cycle++ {
		for src := 0; src < tiles; src++ {
			if rng.Float64() >= *rate {
				continue
			}
			dst := p.Pick(src, rng)
			if dst == src {
				continue
			}
			events = append(events, traffic.Event{
				Cycle: cycle, Src: src, Dst: dst, Bytes: *nbytes, Class: *class,
			})
		}
	}
	if err := traffic.WriteTrace(os.Stdout, events); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
