package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/sampler"
)

// replayer reconstructs exact simulation state at recorded cycles: rebuild
// the network from the dump's spec, restore the newest keyframe at or
// before the target, and re-execute the deterministic engine forward
// through its kernel.
type replayer struct {
	dp   *flightrec.Dump
	spec core.SimSpec
	n    *network.Network
}

func newReplayer(dp *flightrec.Dump) (*replayer, error) {
	if len(dp.SpecJSON) == 0 {
		return nil, fmt.Errorf("dump carries no sim spec; state reconstruction unavailable")
	}
	spec, err := core.ParseSpec(dp.SpecJSON)
	if err != nil {
		return nil, err
	}
	return &replayer{dp: dp, spec: spec}, nil
}

// seek positions the network at exactly `cycle` completed cycles. Seeking
// forward reuses the current network; seeking backward restores again.
func (r *replayer) seek(cycle int64) error {
	if cycle < 0 {
		return fmt.Errorf("cannot seek to negative cycle %d", cycle)
	}
	if r.n == nil || int64(r.n.Kernel().Now()) > cycle {
		if err := r.restore(cycle); err != nil {
			return err
		}
	}
	if delta := cycle - int64(r.n.Kernel().Now()); delta > 0 {
		r.n.Kernel().Run(delta)
	}
	return nil
}

// restore rebuilds a fresh network and loads the newest keyframe at or
// before the target (or leaves it at cycle 0 when none qualifies).
func (r *replayer) restore(cycle int64) error {
	n, err := r.spec.Rebuild()
	if err != nil {
		return err
	}
	if kf := r.dp.KeyframeBefore(cycle); kf != nil {
		f, err := checkpoint.Parse(kf.Data)
		if err != nil {
			return fmt.Errorf("keyframe at cycle %d: %w", kf.Cycle, err)
		}
		if f.ConfigHash != r.dp.ConfigHash {
			return fmt.Errorf("keyframe at cycle %d has config hash %#x, dump has %#x",
				kf.Cycle, f.ConfigHash, r.dp.ConfigHash)
		}
		if err := n.RestoreCheckpoint(f); err != nil {
			return fmt.Errorf("restore keyframe at cycle %d: %w", kf.Cycle, err)
		}
	}
	r.n = n
	return nil
}

// inWindow refuses a cycle flag past the dump's recorded window, toward
// which replay would otherwise re-execute the engine without bound.
func inWindow(dp *flightrec.Dump, flag string, cycle int64) error {
	if cycle > dp.LastCycle() {
		return fmt.Errorf("%s %d is past the dump's recorded window, cycles %d..%d", flag, cycle, dp.FirstCycle(), dp.LastCycle())
	}
	return nil
}

// baseCycle reports where a seek to `cycle` starts re-execution from.
func (r *replayer) baseCycle(cycle int64) int64 {
	if kf := r.dp.KeyframeBefore(cycle); kf != nil {
		return kf.Cycle
	}
	return 0
}

// --- state ------------------------------------------------------------------

func cmdState(args []string) error {
	fs := flag.NewFlagSet("state", flag.ExitOnError)
	cycle := fs.Int64("cycle", -1, "completed cycle to reconstruct (default: the trigger cycle)")
	out := fs.String("out", "", "write the reconstructed checkpoint image to this file")
	fs.Parse(args)
	dp, err := loadDumpArg(fs)
	if err != nil {
		return err
	}
	c := *cycle
	if c < 0 {
		c = dp.Cycle
	}
	if err := inWindow(dp, "-cycle", c); err != nil {
		return err
	}
	rp, err := newReplayer(dp)
	if err != nil {
		return err
	}
	base := rp.baseCycle(c)
	if err := rp.seek(c); err != nil {
		return err
	}
	n := rp.n

	inFlight := n.LinksInFlight()
	bufOcc := n.Occupancy() - inFlight
	rec := n.Recorder()
	p := n.Probe()
	fmt.Printf("state at cycle %d (keyframe %d + %d replayed cycles)\n", c, base, c-base)
	fmt.Printf("  buffered flits    %d\n", bufOcc)
	fmt.Printf("  in-flight flits   %d\n", inFlight)
	fmt.Printf("  generated pkts    %d\n", rec.Generated)
	fmt.Printf("  delivered pkts    %d\n", rec.DeliveredPackets)
	fmt.Printf("  ejected flits     %d\n", p.Totals().Ejected)

	// Exactness cross-check against the ring: the record at this cycle was
	// written by the original run at the same instant.
	if ring := dp.RecordAt(c); ring != nil {
		ok := uint32(bufOcc) == ring.BufOcc && uint32(inFlight) == ring.LinkInFlight
		word := "matches"
		if !ok {
			word = "MISMATCHES"
		}
		fmt.Printf("  ring cross-check  %s (recorded %d buffered / %d in flight)\n",
			word, ring.BufOcc, ring.LinkInFlight)
		if !ok {
			return fmt.Errorf("reconstructed state diverges from the recorded ring at cycle %d", c)
		}
	}

	if *out != "" {
		data, err := n.SaveCheckpoint(dp.ConfigHash, c)
		if err != nil {
			return fmt.Errorf("encode state: %w", err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("  checkpoint image  %s (%d bytes)\n", *out, len(data))
	}
	return nil
}

// --- diff (per-link movers) -------------------------------------------------

// diffLinks replays to both endpoints and differences the per-link flit
// counters, naming the busiest movers of the interval.
func diffLinks(dp *flightrec.Dump, a, b int64, top int) error {
	rp, err := newReplayer(dp)
	if err != nil {
		return err
	}
	if err := rp.seek(a); err != nil {
		return err
	}
	base := map[int]int64{}
	for _, lp := range rp.n.Probe().Links {
		if lp != nil {
			base[lp.Index] = lp.Flits
		}
	}
	if err := rp.seek(b); err != nil {
		return err
	}
	var loads []health.LinkLoad
	for _, lp := range rp.n.Probe().Links {
		if lp == nil {
			continue
		}
		if d := lp.Flits - base[lp.Index]; d > 0 {
			loads = append(loads, health.LinkLoad{
				Index: lp.Index, From: lp.From, To: lp.To,
				Dir: lp.Dir.String(), Flits: d,
			})
		}
	}
	loads = sortedByFlits(loads)
	if len(loads) > top {
		loads = loads[:top]
	}
	if len(loads) == 0 {
		fmt.Println("  per-link: no link carried a flit in the interval")
		return nil
	}
	fmt.Printf("  busiest links over (%d, %d]:\n", a, b)
	for _, l := range loads {
		fmt.Printf("    L%-4d t%d -> t%d %-2s %6d flits\n", l.Index, l.From, l.To, l.Dir, l.Flits)
	}
	return nil
}

// --- waitgraph --------------------------------------------------------------

func cmdWaitgraph(args []string) error {
	fs := flag.NewFlagSet("waitgraph", flag.ExitOnError)
	cycle := fs.Int64("cycle", -1, "final observation cycle (default: the dumped sample's cycle)")
	every := fs.Int64("every", 0, "observation cadence in cycles (default: the dump's health cadence)")
	back := fs.Int64("back", 8, "how many observation intervals to render before the final cycle")
	age := fs.Int64("age", 0, "minimum head-of-line age to count a VC as waiting (default: the health sampler's threshold)")
	fs.Parse(args)
	dp, err := loadDumpArg(fs)
	if err != nil {
		return err
	}
	c := *cycle
	if c < 0 {
		c = dp.Sample.Cycle
		if c == 0 {
			c = dp.LastCycle() - 1
		}
	}
	if err := inWindow(dp, "-cycle", c); err != nil {
		return err
	}
	step := *every
	if step <= 0 {
		step = dp.Every
	}
	if step <= 0 {
		step = sampler.DefaultEvery
	}
	minAge := *age
	if minAge <= 0 {
		minAge = health.MinWaitAge(health.Config{})
	}
	start := c - *back*step
	if start < 0 {
		start = c % step
	}
	rp, err := newReplayer(dp)
	if err != nil {
		return err
	}

	fmt.Printf("waiting-VC graph from cycle %d to %d (every %d cycles, min age %d)\n", start, c, step, minAge)
	var waits []health.VCWait
	for obs := start; obs <= c; obs += step {
		// A live sample at cycle S reads state in-phase at kernel time S,
		// which equals the between-cycles state at S+1 completed cycles.
		if err := rp.seek(obs + 1); err != nil {
			return err
		}
		waits = rp.n.AppendWaitingVCs(obs, minAge, waits[:0])
		renderWaitSet(obs, waits)
		if obs+step > c && obs != c {
			obs = c - step // land exactly on the final cycle
		}
	}

	// When the final observation is the dumped sample, cross-check the
	// replayed waiting set against the recorded one.
	if c == dp.Sample.Cycle && len(dp.Sample.Waiting) > 0 {
		if waitsEqual(waits, dp.Sample.Waiting) {
			fmt.Println("replayed waiting set matches the dumped attribution sample")
		} else {
			fmt.Printf("replayed waiting set DIFFERS from the dumped sample (%d vs %d entries)\n",
				len(waits), len(dp.Sample.Waiting))
		}
	}
	return nil
}

func renderWaitSet(cycle int64, waits []health.VCWait) {
	if len(waits) == 0 {
		fmt.Printf("cycle %-8d no waiting VCs\n", cycle)
		return
	}
	fmt.Printf("cycle %-8d %d waiting VC(s)\n", cycle, len(waits))
	for _, w := range waits {
		switch {
		case w.Stuck:
			fmt.Printf("  %-14s age %-6d WEDGED (stuck by fault)\n", w.Label(), w.Age)
		case w.Stalled:
			fmt.Printf("  %-14s age %-6d WEDGED (port stalled)\n", w.Label(), w.Age)
		case w.Routed && w.DownTile >= 0:
			fmt.Printf("  %-14s age %-6d -> t%d:%v.vc%d\n", w.Label(), w.Age,
				w.DownTile, w.OutPort.Opposite(), w.OutVC)
		default:
			fmt.Printf("  %-14s age %-6d (unrouted)\n", w.Label(), w.Age)
		}
	}
	if cyc := health.WaitCycle(waits); len(cyc) > 0 {
		var sb strings.Builder
		for _, w := range cyc {
			sb.WriteString(w.Label())
			sb.WriteString(" -> ")
		}
		sb.WriteString(cyc[0].Label())
		fmt.Printf("  CYCLE CLOSED: %s\n", sb.String())
	}
}

func waitsEqual(a, b []health.VCWait) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- links ------------------------------------------------------------------

// sparkRunes renders relative intensity, lowest to highest.
var sparkRunes = []rune(" ▁▂▃▄▅▆▇█")

func cmdLinks(args []string) error {
	fs := flag.NewFlagSet("links", flag.ExitOnError)
	from := fs.Int64("from", -1, "older cycle (default: oldest recorded)")
	to := fs.Int64("to", -1, "newer cycle (default: newest recorded)")
	top := fs.Int("top", 8, "how many of the busiest links to render")
	buckets := fs.Int("buckets", 64, "timeline resolution in buckets")
	fs.Parse(args)
	if *top < 0 {
		return fmt.Errorf("-top must be >= 0; got %d", *top)
	}
	dp, err := loadDumpArg(fs)
	if err != nil {
		return err
	}
	if len(dp.Records) == 0 {
		return fmt.Errorf("dump has an empty ring; nothing to render")
	}
	a, b := *from, *to
	if a < 0 {
		a = dp.FirstCycle()
	}
	if b < 0 {
		b = dp.LastCycle()
	}
	if err := inWindow(dp, "-from", a); err != nil {
		return err
	}
	if err := inWindow(dp, "-to", b); err != nil {
		return err
	}
	if a >= b {
		return fmt.Errorf("-from %d must be older than -to %d", a, b)
	}
	nb := *buckets
	if nb < 1 {
		nb = 1
	}
	if int64(nb) > b-a {
		nb = int(b - a)
	}

	// Aggregate lane straight from the ring: total link flits per bucket.
	agg := make([]int64, nb)
	for _, rec := range dp.Range(a+1, b) {
		agg[bucketOf(rec.Cycle, a, b, nb)] += int64(rec.LinkFlits)
	}
	fmt.Printf("link traffic, cycles %d..%d (%d buckets of ~%d cycles)\n", a, b, nb, (b-a)/int64(nb))
	fmt.Printf("  %-22s %s  total\n", "", strings.Repeat("-", nb))
	fmt.Printf("  %-22s %s %7d flits\n", "all links (ring)", sparkline(agg), sumOf(agg))

	// Per-link lanes need replay: step through the interval bucket by
	// bucket differencing the per-link cumulative counters. A dump that
	// cannot be replayed (no spec, or a campaign or trace run, which
	// Rebuild refuses) keeps the ring lane, as diff keeps its totals.
	rp, err := newReplayer(dp)
	if err == nil {
		err = rp.seek(a)
	}
	if err != nil {
		fmt.Printf("  (per-link lanes unavailable: %v)\n", err)
		return nil
	}
	nLinks := len(rp.n.Probe().Links)
	prev := make([]int64, nLinks)
	series := make([][]int64, nLinks)
	for i := range series {
		series[i] = make([]int64, nb)
	}
	for _, lp := range rp.n.Probe().Links {
		if lp != nil {
			prev[lp.Index] = lp.Flits
		}
	}
	for bk := 0; bk < nb; bk++ {
		end := a + (b-a)*int64(bk+1)/int64(nb)
		if err := rp.seek(end); err != nil {
			return err
		}
		for _, lp := range rp.n.Probe().Links {
			if lp == nil {
				continue
			}
			series[lp.Index][bk] = lp.Flits - prev[lp.Index]
			prev[lp.Index] = lp.Flits
		}
	}
	type lane struct {
		idx   int
		total int64
	}
	lanes := make([]lane, 0, nLinks)
	for i := range series {
		if t := sumOf(series[i]); t > 0 {
			lanes = append(lanes, lane{i, t})
		}
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].total != lanes[j].total {
			return lanes[i].total > lanes[j].total
		}
		return lanes[i].idx < lanes[j].idx
	})
	if len(lanes) > *top {
		lanes = lanes[:*top]
	}
	for _, ln := range lanes {
		lp := rp.n.Probe().Links[ln.idx]
		label := fmt.Sprintf("L%d t%d->t%d %s", lp.Index, lp.From, lp.To, lp.Dir)
		fmt.Printf("  %-22s %s %7d flits\n", label, sparkline(series[ln.idx]), ln.total)
	}
	return nil
}

func bucketOf(cycle, a, b int64, nb int) int {
	i := int((cycle - a - 1) * int64(nb) / (b - a))
	if i < 0 {
		i = 0
	}
	if i >= nb {
		i = nb - 1
	}
	return i
}

func sumOf(v []int64) int64 {
	var t int64
	for _, x := range v {
		t += x
	}
	return t
}

func sparkline(v []int64) string {
	var max int64
	for _, x := range v {
		if x > max {
			max = x
		}
	}
	var sb strings.Builder
	for _, x := range v {
		if max == 0 {
			sb.WriteRune(sparkRunes[0])
			continue
		}
		i := int(x * int64(len(sparkRunes)-1) / max)
		sb.WriteRune(sparkRunes[i])
	}
	return sb.String()
}
