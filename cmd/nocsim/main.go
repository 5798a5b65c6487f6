// Command nocsim runs one on-chip network simulation from command-line
// flags and prints the measured latency, throughput, utilization, and
// energy. It is the ad-hoc exploration tool; cmd/nocbench regenerates the
// paper's experiments.
//
// Examples:
//
//	nocsim -topo torus -k 4 -pattern uniform -rate 0.3
//	nocsim -topo mesh -k 8 -pattern transpose -rate 0.2 -flits 4
//	nocsim -print-layout -topo torus -k 4
//	nocsim -faults 'kill,link=9,at=500' -watchdog 64 -seed 7
//	nocsim -mtbf 2000 -measure 8000 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/cmd/internal/obs"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	var (
		topoName = flag.String("topo", "torus", "topology: torus or mesh")
		k        = flag.Int("k", 4, "radix (k x k tiles)")
		pattern  = flag.String("pattern", "uniform", "traffic: uniform, transpose, bitcomp, shuffle, tornado, neighbor")
		rate     = flag.Float64("rate", 0.2, "offered load, flits/cycle/node")
		flits    = flag.Int("flits", 1, "flits per packet")
		vcs      = flag.Int("vcs", 8, "virtual channels")
		buf      = flag.Int("buf", 4, "flit buffers per VC")
		mode     = flag.String("mode", "vc", "flow control: vc, drop, deflect, elastic, vct")
		adaptive = flag.Bool("adaptive", false, "west-first adaptive routing (mesh only)")
		serdes   = flag.Int("serdes", 1, "link cycles per flit (narrow links)")
		nonspec  = flag.Bool("nonspec", false, "disable speculative VC allocation")
		warmup   = flag.Int64("warmup", 1000, "warmup cycles")
		measure  = flag.Int64("measure", 4000, "measurement cycles")
		seed     = flag.Int64("seed", 1, "random seed")
		layout   = flag.Bool("print-layout", false, "print the tile placement (Fig. 1) and exit")
		trace    = flag.String("trace", "", "replay a trace file (cycle src dst bytes [class]) instead of synthetic traffic")
		heatmap  = flag.Bool("heatmap", false, "print a per-tile link duty-factor heatmap after the run")
		faults   = flag.String("faults", "", "fault campaign spec, e.g. 'kill,link=9,at=500;stall,tile=6,port=W,at=800,until=1100'")
		mtbf     = flag.Float64("mtbf", 0, "mean cycles between stochastic faults (0 disables)")
		watchdog = flag.Int("watchdog", 64, "credit-starvation watchdog threshold, cycles (campaign runs)")
		shards   = flag.Int("shards", 1, "intra-cycle shards: routers simulated in parallel, identical results (1 = sequential)")

		ckptEvery = flag.Int64("checkpoint-every", 0, "write a crash-safe checkpoint every N cycles (0 disables; needs -checkpoint-dir)")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for checkpoint files (ckpt-*.noc + MANIFEST)")
		resume    = flag.Bool("resume", false, "resume from the newest valid checkpoint in -checkpoint-dir (fresh start when none)")
	)
	obsFlags := obs.Register()
	flag.Parse()

	if *layout {
		// The spec's radix range check bounds the k×k layout grid and
		// Analyze's all-pairs walk, as it bounds every run.
		s := core.DefaultRunParams().Spec
		s.Topology, s.K = *topoName, *k
		if err := s.Validate(); err != nil {
			fatal(err)
		}
		topo, err := core.BuildTopology(*topoName, *k)
		if err != nil {
			fatal(err)
		}
		fmt.Print(topology.Layout(topo))
		fmt.Println(topology.Analyze(topo).String())
		rc := router.DefaultConfig(0)
		rc.NumVCs = *vcs
		rc.BufFlits = *buf
		if r, err := router.New(rc); err == nil {
			fmt.Println()
			fmt.Print(r.Describe())
		}
		return
	}

	// Flag validation: reject contradictory combinations with a clear
	// message instead of silently overriding or failing deep in the build.
	if *mtbf < 0 {
		fatal(fmt.Errorf("-mtbf must be >= 0 cycles; got %g", *mtbf))
	}
	campaign := *faults != "" || *mtbf > 0
	// The spec reads zero VCs, buffers or serdes cycles as "the default";
	// on the command line a zero is a mistake, not that request.
	if *vcs < 1 || *buf < 1 || *serdes < 1 {
		fatal(fmt.Errorf("-vcs, -buf and -serdes must be >= 1; got %d, %d, %d", *vcs, *buf, *serdes))
	}
	if *shards < 1 {
		fatal(fmt.Errorf("-shards must be >= 1; got %d", *shards))
	}
	if *adaptive && *topoName != "mesh" {
		fatal(fmt.Errorf("-adaptive west-first routing is deadlock-free on meshes only; use -topo mesh"))
	}
	if *mode == "elastic" && *topoName != "mesh" {
		fatal(fmt.Errorf("-mode elastic serializes VCs and would deadlock torus rings; use -topo mesh"))
	}
	if err := obsFlags.Validate(); err != nil {
		fatal(err)
	}
	checkpointing := *ckptEvery > 0 || *resume
	if *ckptEvery < 0 {
		fatal(fmt.Errorf("-checkpoint-every must be >= 0 cycles; got %d", *ckptEvery))
	}
	if checkpointing && *ckptDir == "" {
		fatal(fmt.Errorf("-checkpoint-every/-resume need -checkpoint-dir"))
	}
	if campaign {
		if *mode != "vc" {
			fatal(fmt.Errorf("-faults/-mtbf need the credit-based VC router; -mode %s cannot starve credits for the watchdogs", *mode))
		}
		if *adaptive {
			fatal(fmt.Errorf("-faults/-mtbf use fault-aware source routing; drop -adaptive"))
		}
		if *watchdog < 1 {
			fatal(fmt.Errorf("-faults/-mtbf need -watchdog >= 1 cycles for online detection; got %d", *watchdog))
		}
		if *trace != "" {
			fatal(fmt.Errorf("-trace and -faults/-mtbf are mutually exclusive"))
		}
		if _, err := fault.ParseEvents(*faults); err != nil {
			fatal(fmt.Errorf("bad -faults spec: %w", err))
		}
	}

	p := core.DefaultRunParams()
	p.Topology = *topoName
	p.K = *k
	p.Pattern = *pattern
	p.Rate = *rate
	p.FlitsPerPacket = *flits
	p.NumVCs = *vcs
	p.BufFlits = *buf
	p.SerdesCycles = *serdes
	p.NonSpeculative = *nonspec
	p.WarmupCycles = *warmup
	p.MeasureCycles = *measure
	p.Seed = *seed
	p.CheckpointEvery = *ckptEvery
	p.CheckpointDir = *ckptDir
	p.Resume = *resume
	p.Options = core.Options{Shards: *shards}
	switch *mode {
	case "vc":
	case "drop":
		p.Mode = router.ModeDrop
	case "deflect":
		p.Mode = router.ModeDeflect
	case "elastic":
		p.ElasticLinks = true
	case "vct":
		p.CutThrough = true
	default:
		fatal(fmt.Errorf("unknown -mode %q (vc, drop, deflect, elastic, vct)", *mode))
	}
	p.Adaptive = *adaptive
	// The spec's one range check covers radix per topology, rate, packet
	// length (also against the flow control: -mode drop, deflect and vct)
	// and windows; the checks above are the command line's own.
	if err := p.Validate(); err != nil {
		fatal(err)
	}

	// -heatmap reads the telemetry layer's counters, so it implies a
	// (counters-only) probe even without -metrics.
	p.Probe = obsFlags.NewProbe()
	if p.Probe == nil && *heatmap {
		p.Probe = telemetry.New(telemetry.Config{})
	}
	// The observability stack (-flows, -serve, -flightrec) attaches to the
	// run's network just before the first cycle. The flight recorder
	// stamps dumps and keyframes with the identity the run hands the hook.
	var stack *obs.Stack
	p.OnNetwork = func(n *network.Network, id core.SimSpec) (err error) {
		stack, err = obsFlags.Attach(n, id)
		return err
	}
	defer func() { stack.Close() }()
	stopProf, err := obsFlags.StartPprof()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if campaign {
		if err := runCampaign(p, *faults, *mtbf, *watchdog); err != nil {
			fatal(err)
		}
		if err := stack.Emit(os.Stdout, *heatmap); err != nil {
			fatal(err)
		}
		return
	}

	if *trace != "" {
		if err := runTrace(p, *trace); err != nil {
			fatal(err)
		}
		if err := stack.Emit(os.Stdout, *heatmap); err != nil {
			fatal(err)
		}
		return
	}

	start := time.Now()
	res, err := core.Run(p)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("topology          %s-%dx%d, %s traffic, %d-flit packets\n",
		p.Topology, p.K, p.K, p.Pattern, p.FlitsPerPacket)
	fmt.Printf("offered           %.3f flits/cycle/node\n", res.OfferedFlits)
	fmt.Printf("accepted          %.3f flits/cycle/node\n", res.AcceptedFlits)
	fmt.Printf("packets delivered %d\n", res.DeliveredPackets)
	fmt.Printf("latency           avg %.1f  p50 %d  p99 %d  max %d cycles\n",
		res.AvgLatency, res.P50Latency, res.P99Latency, res.MaxLatency)
	fmt.Printf("network latency   avg %.1f cycles (injection to delivery)\n", res.AvgNetLat)
	fmt.Printf("link utilization  mean %.1f%%  max %.1f%%\n",
		100*res.LinkUtilMean, 100*res.LinkUtilMax)
	if res.DroppedPackets > 0 {
		fmt.Printf("dropped packets   %d\n", res.DroppedPackets)
	}
	if res.EnergyPerFlit > 0 {
		fmt.Printf("energy            %.3g J/flit (hop %.3g J + wire %.3g J total)\n",
			res.EnergyPerFlit, res.HopEnergyJ, res.WireEnergyJ)
	}
	cycles := core.SimulatedCycles()
	fmt.Printf("engine            %d simulated cycles in %.2fs wall clock (%.2fM cycles/s)\n",
		cycles, elapsed.Seconds(), float64(cycles)/elapsed.Seconds()/1e6)
	if err := stack.Emit(os.Stdout, *heatmap); err != nil {
		fatal(err)
	}
}

// runCampaign executes a fault-injection campaign and prints the chaos
// report: what was injected, what the watchdogs detected and how fast,
// and what the rerouted network still delivered.
func runCampaign(p core.RunParams, spec string, mtbf float64, watchdog int) error {
	p.Watchdog = watchdog
	cp := core.CampaignParams{
		Run:    p,
		Spec:   spec,
		MTBF:   mtbf,
		Cycles: p.WarmupCycles + p.MeasureCycles,
	}
	res, err := core.RunCampaign(cp)
	if err != nil {
		return err
	}
	fmt.Printf("fault campaign    %s-%dx%d, uniform bernoulli %.2f, %d cycles, seed %d\n",
		p.Topology, p.K, p.K, p.Rate, cp.Cycles, p.Seed)
	if spec != "" {
		fmt.Printf("scheduled faults  %s\n", spec)
	}
	if mtbf > 0 {
		fmt.Printf("stochastic faults mtbf %.0f cycles\n", mtbf)
	}
	fmt.Printf("faults injected   %d (skipped %d)\n", res.Injected, res.Skipped)
	fmt.Printf("packets           sent %d  delivered %d  send-refused %d\n",
		res.Sent, res.Delivered, res.SendFails)
	tot := res.Totals
	fmt.Printf("fail-stop losses  wire flits %d  drained flits %d  aborted in-net %d  aborted at rx %d\n",
		tot.LostFlits, tot.DroppedFlits, tot.AbortedIn, tot.AbortedRx)
	fmt.Printf("rerouting         %d packets diverted, %d unroutable (network cut)\n",
		tot.Rerouted, tot.Unroutable)
	fmt.Printf("detections        %d dead channels (watchdog threshold %d)\n", len(res.Detections), watchdog)
	for i, det := range res.Detections {
		lat := "fault not injector-attributed"
		if i < len(res.DetectionLatencies) && res.DetectionLatencies[i] >= 0 {
			lat = fmt.Sprintf("latency %d cycles", res.DetectionLatencies[i])
		}
		fmt.Printf("  tile %d -> %v dead at cycle %d (%s)\n", det.From, det.Dir, det.DetectedAt, lat)
	}
	if len(res.Detections) > 0 {
		fmt.Printf("post-fault        %d/%d packets born after last detection delivered (%d lost)\n",
			res.BornAfterEngage-res.LostAfterEngage, res.BornAfterEngage, res.LostAfterEngage)
		fmt.Printf("post-fault tput   %.4f packets/cycle/node\n", res.PostFaultThroughput)
	}
	return nil
}

// runTrace replays a trace file through the configured network and prints
// delivery statistics.
func runTrace(p core.RunParams, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := traffic.ParseTrace(f)
	if err != nil {
		return err
	}
	p.WarmupCycles = 0 // a replayed trace is measured in full
	horizon := int64(0)
	for _, e := range events {
		if e.Cycle > horizon {
			horizon = e.Cycle
		}
		// A packet the flow control refuses would vanish from the replay;
		// a loopback never enters the network.
		if e.Src == e.Dst {
			continue
		}
		if err := p.CheckPacketFlits(flit.FlitsFor(e.Bytes)); err != nil {
			return fmt.Errorf("trace event %+v: %v", e, err)
		}
	}
	// The trace file's identity rides in the config hash so a resume
	// against a different trace is rejected, not silently merged.
	id := p.SimSpec("trace", fmt.Sprintf("%s|%d|%d", path, len(events), horizon))
	build := func() (*network.Network, error) {
		n, err := core.BuildNetwork(p)
		if err != nil {
			return nil, err
		}
		tiles := n.Topology().NumTiles()
		srcs, err := traffic.SplitByTile(events, tiles, flit.VCMask(0xFF))
		if err != nil {
			return nil, err
		}
		for tile, src := range srcs {
			n.AttachClient(tile, src)
		}
		if p.OnNetwork != nil {
			if err := p.OnNetwork(n, id); err != nil {
				return nil, err
			}
		}
		return n, nil
	}
	n, err := build()
	if err != nil {
		return err
	}
	n, err = core.RunToHorizon(n, p, horizon+1, id, build)
	if err != nil {
		return err
	}
	if !n.Drain(1_000_000) {
		return fmt.Errorf("trace did not drain (occupancy %d)", n.Occupancy())
	}
	rec := n.Recorder()
	fmt.Printf("trace             %s: %d events over %d cycles\n", path, len(events), horizon+1)
	fmt.Printf("packets delivered %d (of %d generated)\n", rec.DeliveredPackets, rec.Generated)
	fmt.Printf("latency           %s\n", rec.PacketLatency.String())
	fmt.Printf("finished at cycle %d\n", n.Kernel().Now())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocsim:", err)
	os.Exit(1)
}
