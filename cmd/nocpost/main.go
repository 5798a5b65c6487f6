// Command nocpost is the post-mortem analysis tool for flight-recorder
// dumps (internal/telemetry/flightrec, written by nocsim/nocsweep/nocbench
// under -flightrec). A dump carries a ring of per-cycle event deltas,
// periodic full-state keyframes, the fault and health-transition logs, and
// the attribution sample the live detectors judged — everything needed to
// time-travel through the cycles leading up to a wedge, crash, or manual
// trigger without re-running the workload.
//
//	nocpost info       dump.frec              # what the dump contains
//	nocpost state      -cycle 2048 dump.frec  # reconstruct exact state there
//	nocpost diff       -from 1900 -to 2000 dump.frec
//	nocpost waitgraph  dump.frec              # watch the wait-for graph form
//	nocpost links      dump.frec              # per-link occupancy timelines
//	nocpost verdict    dump.frec              # root-cause attribution
//
// Reconstruction is exact, not approximate: the engine is deterministic,
// so restoring the newest keyframe at or before the target cycle and
// re-executing forward rebuilds the state a straight-through run would
// have had there, byte for byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/health"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "info":
		err = cmdInfo(args)
	case "state":
		err = cmdState(args)
	case "diff":
		err = cmdDiff(args)
	case "waitgraph":
		err = cmdWaitgraph(args)
	case "links":
		err = cmdLinks(args)
	case "verdict":
		err = cmdVerdict(args)
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
		return
	default:
		fmt.Fprintf(os.Stderr, "nocpost: unknown command %q\n\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocpost:", err)
		os.Exit(1)
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `nocpost analyses flight-recorder dumps (*.frec)

usage: nocpost <command> [flags] <dump.frec>

commands:
  info       print the dump header, keyframes, fault and health logs
  state      reconstruct exact network state at a recorded cycle
             (-cycle N, -out file writes the checkpoint image)
  diff       event deltas between two recorded cycles (-from A -to B)
  waitgraph  render the waiting-VC wait-for graph as it forms
             (-cycle C, -every N, -age MIN)
  links      per-link traffic timelines across the window (-top N, -buckets B)
  verdict    recompute root-cause attribution and cross-check it against
             the live detectors' recorded judgment

run "nocpost <command> -h" for the command's flags.
`)
}

// loadDumpArg parses the trailing dump-path argument common to every
// command.
func loadDumpArg(fs *flag.FlagSet) (*flightrec.Dump, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("want exactly one dump file argument, got %d", fs.NArg())
	}
	return flightrec.LoadDump(fs.Arg(0))
}

// --- info -------------------------------------------------------------------

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	dp, err := loadDumpArg(fs)
	if err != nil {
		return err
	}

	fmt.Printf("dump        %s\n", fs.Arg(0))
	fmt.Printf("reason      %s (trigger cycle %d)\n", dp.Reason, dp.Cycle)
	fmt.Printf("config      hash %#x, kind %q\n", dp.ConfigHash, dp.SpecKind)
	if len(dp.SpecJSON) > 0 {
		fmt.Printf("spec        %s\n", dp.SpecJSON)
	} else {
		fmt.Printf("spec        (none; state reconstruction unavailable)\n")
	}
	fmt.Printf("ring        %d records, cycles %d..%d (capacity %d)\n",
		len(dp.Records), dp.FirstCycle(), dp.LastCycle(), dp.Window)
	fmt.Printf("cadence     health sample every %d cycles, keyframe every %d\n", dp.Every, dp.KfEvery)
	if dp.KeyframeErr != "" {
		fmt.Printf("keyframes   disabled: %s\n", dp.KeyframeErr)
	} else if len(dp.Keyframes) == 0 {
		fmt.Printf("keyframes   none retained (replay starts from a cycle-0 rebuild)\n")
	} else {
		for _, kf := range dp.Keyframes {
			fmt.Printf("keyframe    cycle %d (%d bytes)\n", kf.Cycle, len(kf.Data))
		}
	}
	if n := len(dp.Faults); n > 0 || dp.FaultDrops > 0 {
		fmt.Printf("faults      %d logged, %d dropped\n", n, dp.FaultDrops)
		for _, f := range dp.Faults {
			fmt.Printf("  cycle %-8d %s\n", f.Cycle, faultString(f))
		}
	}
	if n := len(dp.Health); n > 0 || dp.HealthDrops > 0 {
		fmt.Printf("health      %d transition(s), %d dropped\n", n, dp.HealthDrops)
		for _, ev := range dp.Health {
			fmt.Printf("  cycle %-8d %-11s %-9s %s\n", ev.Cycle, ev.Detector, healthWord(ev.Healthy), ev.Detail)
		}
	}
	if dp.Sample.Cycle > 0 || len(dp.Sample.Waiting) > 0 {
		fmt.Printf("sample      cycle %d: %d flits buffered, %d waiting VC(s), %d hot link(s), %d dead link(s)\n",
			dp.Sample.Cycle, dp.Sample.BufOcc, len(dp.Sample.Waiting), len(dp.Sample.HotLinks), dp.Sample.DeadLinks)
	}
	return nil
}

func faultString(f flightrec.FaultEvent) string {
	if f.Kind == 1 {
		return fmt.Sprintf("link %d declared dead by watchdog", f.A)
	}
	return fmt.Sprintf("injector fault kind=%d where=%d", f.A, f.B)
}

func healthWord(healthy bool) string {
	if healthy {
		return "healthy"
	}
	return "UNHEALTHY"
}

// --- diff -------------------------------------------------------------------

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	from := fs.Int64("from", -1, "older cycle (default: oldest recorded)")
	to := fs.Int64("to", -1, "newer cycle (default: newest recorded)")
	topLinks := fs.Int("links", 8, "per-link movers to show via replay (0 disables)")
	fs.Parse(args)
	dp, err := loadDumpArg(fs)
	if err != nil {
		return err
	}
	if len(dp.Records) == 0 {
		return fmt.Errorf("dump has an empty ring; nothing to diff")
	}
	a, b := *from, *to
	if a < 0 {
		a = dp.FirstCycle()
	}
	if b < 0 {
		b = dp.LastCycle()
	}
	if a >= b {
		return fmt.Errorf("-from %d must be older than -to %d", a, b)
	}
	if dp.RecordAt(a) == nil || dp.RecordAt(b) == nil {
		return fmt.Errorf("cycles %d..%d not fully inside the recorded window %d..%d",
			a, b, dp.FirstCycle(), dp.LastCycle())
	}

	// Sum the per-cycle deltas over (a, b]: the activity that turned the
	// state at cycle a into the state at cycle b.
	var sum flightrec.Record
	for _, rec := range dp.Range(a+1, b) {
		sum.Injected += rec.Injected
		sum.Ejected += rec.Ejected
		sum.Routed += rec.Routed
		sum.SwitchMoves += rec.SwitchMoves
		sum.BypassMoves += rec.BypassMoves
		sum.ArbLosses += rec.ArbLosses
		sum.CreditStalls += rec.CreditStalls
		sum.StageStalls += rec.StageStalls
		sum.LinkFlits += rec.LinkFlits
		sum.HeadFlits += rec.HeadFlits
		sum.Credits += rec.Credits
		sum.DeliveredFlits += rec.DeliveredFlits
		sum.DeliveredPackets += rec.DeliveredPackets
		sum.AbortedPackets += rec.AbortedPackets
		sum.Generated += rec.Generated
	}
	ra, rb := dp.RecordAt(a), dp.RecordAt(b)
	span := b - a
	fmt.Printf("diff        cycles %d -> %d (%d cycles)\n", a, b, span)
	row := func(name string, v uint32) {
		fmt.Printf("  %-18s %8d   (%.3f/cycle)\n", name, v, float64(v)/float64(span))
	}
	row("generated pkts", sum.Generated)
	row("injected flits", sum.Injected)
	row("routed", sum.Routed)
	row("switch moves", sum.SwitchMoves)
	row("bypass moves", sum.BypassMoves)
	row("link flits", sum.LinkFlits)
	row("credits", sum.Credits)
	row("ejected flits", sum.Ejected)
	row("delivered flits", sum.DeliveredFlits)
	row("delivered pkts", sum.DeliveredPackets)
	row("aborted pkts", sum.AbortedPackets)
	row("arb losses", sum.ArbLosses)
	row("credit stalls", sum.CreditStalls)
	row("stage stalls", sum.StageStalls)
	fmt.Printf("  %-18s %8d -> %d\n", "buffered flits", ra.BufOcc, rb.BufOcc)
	fmt.Printf("  %-18s %8d -> %d\n", "in-flight flits", ra.LinkInFlight, rb.LinkInFlight)
	if ra.DeadLinks != rb.DeadLinks || rb.DeadLinks > 0 {
		fmt.Printf("  %-18s %8d -> %d\n", "dead links", ra.DeadLinks, rb.DeadLinks)
	}
	for _, f := range dp.Faults {
		if f.Cycle > a && f.Cycle <= b {
			fmt.Printf("  fault at cycle %d: %s\n", f.Cycle, faultString(f))
		}
	}
	for _, ev := range dp.Health {
		if ev.Cycle > a && ev.Cycle <= b {
			fmt.Printf("  health at cycle %d: %s %s %s\n", ev.Cycle, ev.Detector, healthWord(ev.Healthy), ev.Detail)
		}
	}

	if *topLinks > 0 {
		if err := diffLinks(dp, a, b, *topLinks); err != nil {
			fmt.Printf("  (per-link diff unavailable: %v)\n", err)
		}
	}
	return nil
}

// --- verdict ----------------------------------------------------------------

func cmdVerdict(args []string) error {
	fs := flag.NewFlagSet("verdict", flag.ExitOnError)
	fs.Parse(args)
	dp, err := loadDumpArg(fs)
	if err != nil {
		return err
	}

	fmt.Printf("dump        %s\n", fs.Arg(0))
	fmt.Printf("reason      %s (trigger cycle %d)\n", dp.Reason, dp.Cycle)
	fmt.Printf("window      cycles %d..%d, health cadence %d\n", dp.FirstCycle(), dp.LastCycle(), dp.Every)

	if len(dp.Health) > 0 {
		fmt.Println("recorded transitions (live detectors):")
		for _, ev := range dp.Health {
			fmt.Printf("  cycle %-8d %-11s %-9s %s\n", ev.Cycle, ev.Detector, healthWord(ev.Healthy), ev.Detail)
		}
	} else {
		fmt.Println("recorded transitions: none (every detector stayed healthy)")
	}

	// Independent recomputation from the dumped attribution sample: the
	// same entry points the live deadlock detector uses, fed the material
	// it judged, must reproduce its detail string exactly.
	s := health.Sample{
		Cycle:            dp.Sample.Cycle,
		GeneratedPackets: dp.Sample.Generated,
		EjectedFlits:     dp.Sample.EjectedFlits,
		BufOcc:           dp.Sample.BufOcc,
		Waiting:          dp.Sample.Waiting,
		HotLinks:         dp.Sample.HotLinks,
		DeadLinks:        dp.Sample.DeadLinks,
	}
	fmt.Printf("post-mortem attribution (recomputed from the dumped sample at cycle %d):\n", s.Cycle)
	detail := health.DeadlockDetail(s)
	fmt.Printf("  no-progress analysis: %s\n", detail)
	if cyc := health.WaitCycle(s.Waiting); len(cyc) > 0 {
		var sb strings.Builder
		for _, w := range cyc {
			sb.WriteString(w.Label())
			sb.WriteString(" -> ")
		}
		sb.WriteString(cyc[0].Label())
		fmt.Printf("  wait-for cycle:       %s\n", sb.String())
	} else if len(s.Waiting) > 0 {
		fmt.Printf("  wait-for cycle:       none (chains end outside the waiting set)\n")
	}

	// Cross-check: replay a fresh monitor over the sample series
	// reconstructed from the ring. Its transitions must agree with the
	// recorded ones wherever the windows overlap.
	replayed := replayMonitor(dp)
	if len(replayed) > 0 {
		fmt.Printf("monitor replay over the ring (%d reconstructed samples):\n", countSamples(dp))
		for _, ev := range replayed {
			verdictMark := crossCheck(dp.Health, ev)
			fmt.Printf("  cycle %-8d %-11s %-9s %s%s\n", ev.Cycle, ev.Detector, healthWord(ev.Healthy), ev.Detail, verdictMark)
		}
	}

	// The bottom line: the highest-priority detector that is unhealthy at
	// the end of the record, with its freshest attribution.
	last := map[string]health.Event{}
	for _, ev := range dp.Health {
		last[ev.Detector] = ev
	}
	for _, det := range []string{health.DetectorDeadlock, health.DetectorStarvation, health.DetectorCongestion} {
		ev, ok := last[det]
		if !ok || ev.Healthy {
			continue
		}
		attribution := ev.Detail
		match := ""
		if det == health.DetectorDeadlock {
			if detail == ev.Detail {
				match = " [post-mortem recomputation matches the live attribution]"
			} else {
				match = " [post-mortem recomputation DIFFERS; see above]"
			}
		}
		fmt.Printf("root cause: %s at cycle %d — %s%s\n", det, ev.Cycle, attribution, match)
		return nil
	}
	fmt.Println("root cause: none — all detectors healthy at dump time")
	return nil
}

// replayMonitor reconstructs the live recorder's sample series from the
// ring (the monitor differences cumulative counters, so window-relative
// sums are equivalent) and folds it through a fresh monitor. The dumped
// attribution sample supplies the waiting set and hot links at its cycle;
// other samples carry counters only, which is all the detectors need
// until they fire.
func replayMonitor(dp *flightrec.Dump) []health.Event {
	if dp.Every <= 0 || len(dp.Records) == 0 {
		return nil
	}
	mon := health.New(health.Config{})
	var events []health.Event
	var ej, gen int64
	for i := range dp.Records {
		rec := &dp.Records[i]
		ej += int64(rec.Ejected)
		gen += int64(rec.Generated)
		// A record at ring cycle c was written in-phase at kernel time
		// c-1, the same instant a health sample at cycle c-1 reads its
		// counters.
		sc := rec.Cycle - 1
		if sc < 0 || sc%dp.Every != 0 {
			continue
		}
		s := health.Sample{
			Cycle:            sc,
			GeneratedPackets: gen,
			EjectedFlits:     ej,
			BufOcc:           int64(rec.BufOcc) + int64(rec.LinkInFlight),
			DeadLinks:        int(rec.DeadLinks),
		}
		if sc == dp.Sample.Cycle {
			s.Waiting = dp.Sample.Waiting
			s.HotLinks = dp.Sample.HotLinks
		}
		events = append(events, mon.Observe(s)...)
	}
	return events
}

func countSamples(dp *flightrec.Dump) int {
	n := 0
	for i := range dp.Records {
		if sc := dp.Records[i].Cycle - 1; sc >= 0 && sc%dp.Every == 0 {
			n++
		}
	}
	return n
}

// crossCheck annotates a replayed event with whether the live log recorded
// the same transition.
func crossCheck(recorded []health.Event, ev health.Event) string {
	for _, r := range recorded {
		if r.Cycle == ev.Cycle && r.Detector == ev.Detector && r.Healthy == ev.Healthy {
			if r.Detail == ev.Detail {
				return "   [matches recorded]"
			}
			return "   [recorded transition, detail differs]"
		}
	}
	return "   [not in recorded log]"
}

// sortedByFlits orders link loads hottest-first for display.
func sortedByFlits(loads []health.LinkLoad) []health.LinkLoad {
	out := append([]health.LinkLoad(nil), loads...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flits != out[j].Flits {
			return out[i].Flits > out[j].Flits
		}
		return out[i].Index < out[j].Index
	})
	return out
}
