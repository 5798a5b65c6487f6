package core

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// CampaignParams describes one fault-injection campaign: a network and
// load configuration plus the faults to inject, scheduled (Spec) and/or
// stochastic (MTBF over the run length).
type CampaignParams struct {
	Run    RunParams // network and traffic configuration
	Spec   string    // scheduled events, fault.ParseEvents syntax
	MTBF   float64   // mean cycles between stochastic faults; 0 disables
	Cycles int64     // injection window; sources stop here and the network drains
}

// DefaultCampaignParams returns the baseline chaos configuration: the
// paper's 4x4 folded torus under 10% uniform Bernoulli load with
// watchdogs armed at threshold 64.
func DefaultCampaignParams() CampaignParams {
	p := DefaultRunParams()
	p.Rate = 0.10
	p.Watchdog = 64
	return CampaignParams{Run: p, Cycles: 4000}
}

// CampaignResult is the measured outcome of one fault campaign.
type CampaignResult struct {
	Params CampaignParams

	Sent      int64 // packets accepted by source ports
	Delivered int64 // packets that reached their destination client
	SendFails int64 // sends refused (network cut at injection time)

	Injected int // fault events applied
	Skipped  int // fault events that could not be applied

	Detections         []fault.Detection
	DetectionLatencies []int64 // per detection, cycles from injection to declaration

	// LostAfterEngage counts packets born after the last detection that
	// never arrived: the acceptance criterion demands zero for any
	// single-link fault on a torus.
	LostAfterEngage int64
	BornAfterEngage int64

	// PostFaultThroughput is delivered packets/cycle/node over the window
	// after the last detection (0 when nothing was detected).
	PostFaultThroughput float64

	Totals network.FaultTotals
}

// bornRec is one accepted send: the packet id and its birth cycle.
type bornRec struct {
	id uint64
	at int64
}

// campaignLedger is the campaign's cross-tile packet accounting: every
// accepted send with its birth cycle, arrivals by id, and the aggregate
// counters. The kernel's client phase is single-threaded, so the append
// order is deterministic and plain containers are safe. The logs are
// append-only slices rather than maps so a checkpoint is a straight
// sequential encode — no sort, no map iteration — whose cost tracks the
// packet count; the arrival set keeps a side map only for the O(1)
// duplicate-delivery check during the run.
type campaignLedger struct {
	born       []bornRec // accepted sends, in injection order
	arrivedLog []uint64  // first arrivals, in delivery order
	arrived    map[uint64]bool
	sent       int64
	delivered  int64
	sendFails  int64
}

func newCampaignLedger() *campaignLedger {
	return &campaignLedger{arrived: make(map[uint64]bool)}
}

// noteArrival records the first delivery of a packet id.
func (l *campaignLedger) noteArrival(id uint64) {
	if l.arrived[id] {
		return
	}
	l.arrived[id] = true
	l.arrivedLog = append(l.arrivedLog, id)
	l.delivered++
}

func (l *campaignLedger) SaveState(e *checkpoint.Encoder) {
	e.I64(l.sent)
	e.I64(l.delivered)
	e.I64(l.sendFails)
	e.U32(uint32(len(l.born)))
	for _, r := range l.born {
		e.U64(r.id)
		e.I64(r.at)
	}
	e.U32(uint32(len(l.arrivedLog)))
	for _, id := range l.arrivedLog {
		e.U64(id)
	}
}

func (l *campaignLedger) RestoreState(d *checkpoint.Decoder) {
	l.sent = d.I64()
	l.delivered = d.I64()
	l.sendFails = d.I64()
	nb := d.Count(16)
	l.born = l.born[:0]
	for i := 0; i < nb; i++ {
		id := d.U64()
		at := d.I64()
		if d.Err() != nil {
			return
		}
		l.born = append(l.born, bornRec{id: id, at: at})
	}
	na := d.Count(8)
	l.arrivedLog = l.arrivedLog[:0]
	l.arrived = make(map[uint64]bool, na)
	for i := 0; i < na; i++ {
		id := d.U64()
		if d.Err() != nil {
			return
		}
		l.arrivedLog = append(l.arrivedLog, id)
		l.arrived[id] = true
	}
}

// chaosClient is a per-tile Bernoulli source feeding the shared campaign
// ledger. Its random stream rides along in checkpoints.
type chaosClient struct {
	tile   int
	tiles  int
	cycles int64
	rate   float64
	mask   flit.VCMask
	rng    sim.Stream
	led    *campaignLedger
}

func (c *chaosClient) Tick(now int64, port *network.Port) {
	for _, d := range port.Deliveries() {
		c.led.noteArrival(d.PacketID)
	}
	if now >= c.cycles || c.rng.Float64() >= c.rate {
		return
	}
	dst := c.rng.IntN(c.tiles - 1)
	if dst >= c.tile {
		dst++
	}
	id, err := port.Send(dst, []byte{byte(now), byte(c.tile)}, c.mask, 0)
	if err != nil {
		c.led.sendFails++ // network cut at injection time
		return
	}
	c.led.sent++
	c.led.born = append(c.led.born, bornRec{id: id, at: now})
}

func (c *chaosClient) SaveState(e *checkpoint.Encoder) { c.rng.SaveState(e) }

func (c *chaosClient) RestoreState(d *checkpoint.Decoder) { c.rng.RestoreState(d) }

// RunCampaign executes one seeded fault campaign: Bernoulli sources on
// every tile, faults injected per the spec and the stochastic model,
// watchdog detection, fault-aware rerouting, then a drain so every
// surviving packet settles. Outcomes are bit-for-bit reproducible for a
// fixed CampaignParams, including across checkpoint/resume.
func RunCampaign(p CampaignParams) (CampaignResult, error) {
	if p.Run.Watchdog <= 0 {
		return CampaignResult{}, fmt.Errorf("core: campaign requires Watchdog > 0 (got %d)", p.Run.Watchdog)
	}
	if p.Cycles <= 0 {
		return CampaignResult{}, fmt.Errorf("core: campaign requires Cycles > 0 (got %d)", p.Cycles)
	}
	events, err := fault.ParseEvents(p.Spec)
	if err != nil {
		return CampaignResult{}, err
	}

	id := p.Run.SimSpec("campaign", fmt.Sprintf("%s|%v|%d", p.Spec, p.MTBF, p.Cycles))
	hash, err := id.Hash()
	if err != nil {
		return CampaignResult{}, err
	}

	// build assembles a complete campaign instance — network, injector,
	// ledger, clients — so a resume can reconstruct structure from the
	// configuration and then overlay the snapshot's dynamic state.
	var inj *fault.Injector
	var led *campaignLedger
	build := func() (*network.Network, error) {
		n, err := BuildNetwork(p.Run)
		if err != nil {
			return nil, err
		}
		fresh, err := fault.NewInjector(n, events, p.MTBF, p.Cycles, nil)
		if err != nil {
			return nil, err
		}
		if p.Run.Probe != nil {
			fresh.SetProbe(p.Run.Probe)
		}
		fresh.Attach()
		ledger := newCampaignLedger()
		topo := n.Topology()
		tiles := topo.NumTiles()
		mask := p.Run.vcMask()
		for tile := 0; tile < tiles; tile++ {
			c := &chaosClient{
				tile: tile, tiles: tiles, cycles: p.Cycles, rate: p.Run.Rate,
				mask: mask, led: ledger,
			}
			c.rng.Seed(p.Run.Seed, sim.ChaosStream+sim.StreamID(tile))
			n.AttachClient(tile, c)
		}
		n.AddCheckpointExtra("faultinj", fresh)
		n.AddCheckpointExtra("ledger", ledger)
		if p.Run.OnNetwork != nil {
			if err := p.Run.OnNetwork(n, id); err != nil {
				return nil, err
			}
		}
		inj, led = fresh, ledger
		return n, nil
	}
	n, err := build()
	if err != nil {
		return CampaignResult{}, err
	}
	tiles := n.Topology().NumTiles()
	n, err = runToHorizon(n, p.Run, p.Cycles, hash, build)
	if err != nil {
		return CampaignResult{}, err
	}
	n.Drain(p.Run.drainBudget())
	countCycles(n.Kernel().Now())

	res := CampaignResult{Params: p}
	res.Sent = led.sent
	res.Delivered = led.delivered
	res.SendFails = led.sendFails
	res.Injected = len(inj.Log)
	res.Skipped = inj.Skipped
	res.Totals = n.FaultTotals()
	res.Detections = res.Totals.Detections

	// Detection latency: match each detection to the earliest logged
	// fault implicating that channel.
	for _, det := range res.Detections {
		lat := int64(-1)
		for _, ap := range inj.Log {
			if ap.Watched == det.LinkID {
				lat = det.DetectedAt - ap.At
				break // Log is in application order; earliest wins
			}
		}
		res.DetectionLatencies = append(res.DetectionLatencies, lat)
	}

	// Ledger sweep: packets born after the last detection engaged the
	// reroute must all have arrived.
	var engaged, postDelivered int64 = -1, 0
	for _, det := range res.Detections {
		if det.DetectedAt > engaged {
			engaged = det.DetectedAt
		}
	}
	if engaged >= 0 {
		for _, r := range led.born {
			if r.at <= engaged {
				continue
			}
			res.BornAfterEngage++
			if led.arrived[r.id] {
				postDelivered++
			} else {
				res.LostAfterEngage++
			}
		}
		if window := p.Cycles - engaged; window > 0 {
			res.PostFaultThroughput = float64(postDelivered) / float64(window) / float64(tiles)
		}
	}
	return res, nil
}

// meanLatency averages the matched (non-negative) detection latencies.
func meanLatency(lats []int64) float64 {
	var sum, n int64
	for _, l := range lats {
		if l >= 0 {
			sum += l
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// E20Chaos exercises the runtime fault subsystem end to end: seeded
// campaigns are reproducible, watchdogs localize kills and stalls, and
// fault-aware rerouting restores full connectivity after any single-link
// fault — the §2.5 fail-stop story carried from wires up to routes.
func E20Chaos(quick bool, opt Options) (*Table, error) {
	t := &Table{
		ID:    "E20",
		Title: "Chaos campaign: runtime faults, detection, rerouting",
		PaperClaim: "§2.5: faults are made fail-stop and routed around; the network " +
			"degrades gracefully rather than silently corrupting or deadlocking",
		Columns: []string{"scenario", "faults", "detected", "det lat", "delivered", "lost-post", "rerouted", "verdict"},
	}
	p := DefaultCampaignParams()
	p.Run.Options = opt
	if quick {
		p.Cycles = 2000
	}

	verdict := func(ok bool) string {
		if ok {
			return "PASS"
		}
		return "BROKEN"
	}

	// Scenario 1: seeded determinism — the acceptance criterion that two
	// identical campaigns agree on every count.
	det := p
	det.Run.Seed = 7
	det.Spec = "kill,link=9,at=300;stall,tile=6,port=W,at=800,until=1100"
	a, err := RunCampaign(det)
	if err != nil {
		return nil, err
	}
	b, err := RunCampaign(det)
	if err != nil {
		return nil, err
	}
	same := a.Sent == b.Sent && a.Delivered == b.Delivered &&
		a.Totals.Rerouted == b.Totals.Rerouted && len(a.Detections) == len(b.Detections)
	for i := range a.Detections {
		same = same && a.Detections[i] == b.Detections[i]
	}
	t.AddRow("seed-7 twice", fmt.Sprint(a.Injected), fmt.Sprint(len(a.Detections)),
		fmt.Sprintf("%.0f", meanLatency(a.DetectionLatencies)), fmt.Sprint(a.Delivered),
		fmt.Sprint(a.LostAfterEngage), fmt.Sprint(a.Totals.Rerouted), verdict(same))

	// Scenario 2: single-link kill sweep — no permanent loss after the
	// watchdog engages, for any link (quick mode samples every 8th).
	topo, err := topology.NewFoldedTorus(p.Run.K, p.Run.K)
	if err != nil {
		return nil, err
	}
	numLinks := len(topology.Links(topo))
	stride := 1
	if quick {
		stride = 8
	}
	var links []int
	for link := 0; link < numLinks; link += stride {
		links = append(links, link)
	}
	// One campaign per killed link, fanned across the worker pool; each
	// campaign owns its network, so results match the sequential sweep.
	results := make([]CampaignResult, len(links))
	err = sim.ForEach(len(links), opt.Parallelism, func(i int) error {
		kp := p
		kp.Run.Seed = 11 + int64(links[i])
		kp.Spec = fault.FormatEvents([]fault.Event{
			{Kind: fault.LinkKill, At: 200, Link: links[i], From: -1, Tile: -1, VC: -1},
		})
		r, err := RunCampaign(kp)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Aggregate in link order so the table is deterministic.
	var swept, sweptDet int
	var sweptLost, sweptRerouted int64
	var latSum float64
	for _, r := range results {
		swept++
		sweptDet += len(r.Detections)
		sweptLost += r.LostAfterEngage
		sweptRerouted += r.Totals.Rerouted
		latSum += meanLatency(r.DetectionLatencies)
	}
	t.AddRow(fmt.Sprintf("kill sweep (%d links)", swept), fmt.Sprint(swept), fmt.Sprint(sweptDet),
		fmt.Sprintf("%.0f", latSum/float64(swept)), "-", fmt.Sprint(sweptLost),
		fmt.Sprint(sweptRerouted), verdict(sweptDet == swept && sweptLost == 0))

	// Scenario 3: mixed scheduled campaign across all four fault models
	// (flips need the physical wire layer; ECC masks them).
	mix := p
	mix.Run.Seed = 3
	mix.Run.PhysWires = true
	mix.Run.ECC = true
	mix.Spec = "kill,link=20,at=300;flip,link=4,p=0.05,at=100,until=1500;" +
		"stall,tile=5,port=W,at=600,until=900;stuck,tile=1,port=N,vc=3,at=100"
	m, err := RunCampaign(mix)
	if err != nil {
		return nil, err
	}
	mixOK := m.Injected == 4 && len(m.Detections) >= 1 && m.LostAfterEngage == 0
	t.AddRow("mixed models", fmt.Sprint(m.Injected), fmt.Sprint(len(m.Detections)),
		fmt.Sprintf("%.0f", meanLatency(m.DetectionLatencies)), fmt.Sprint(m.Delivered),
		fmt.Sprint(m.LostAfterEngage), fmt.Sprint(m.Totals.Rerouted), verdict(mixOK))

	// Scenario 4: stochastic MTBF model — same seed, same campaign.
	st := p
	st.Run.Seed = 7
	st.MTBF = float64(p.Cycles) / 2 // expect ~2 faults over the run
	s1, err := RunCampaign(st)
	if err != nil {
		return nil, err
	}
	s2, err := RunCampaign(st)
	if err != nil {
		return nil, err
	}
	stOK := s1.Injected+s1.Skipped > 0 && s1.Injected == s2.Injected &&
		s1.Delivered == s2.Delivered && s1.Sent == s2.Sent
	t.AddRow(fmt.Sprintf("stochastic mtbf=%.0f", st.MTBF), fmt.Sprint(s1.Injected),
		fmt.Sprint(len(s1.Detections)), fmt.Sprintf("%.0f", meanLatency(s1.DetectionLatencies)),
		fmt.Sprint(s1.Delivered), fmt.Sprint(s1.LostAfterEngage), fmt.Sprint(s1.Totals.Rerouted),
		verdict(stOK))

	// Scenario 5: post-fault throughput — a single kill costs capacity,
	// not connectivity; throughput stays within 2x of the healthy run.
	healthy := p
	healthy.Run.Seed = 19
	h, err := RunCampaign(healthy)
	if err != nil {
		return nil, err
	}
	healthyTput := float64(h.Delivered) / float64(p.Cycles) / 16
	faulted := p
	faulted.Run.Seed = 19
	faulted.Spec = "kill,link=12,at=200"
	f, err := RunCampaign(faulted)
	if err != nil {
		return nil, err
	}
	tputOK := len(f.Detections) == 1 && f.PostFaultThroughput > 0.5*healthyTput
	t.AddRow("post-fault tput", "1", fmt.Sprint(len(f.Detections)),
		fmt.Sprintf("%.0f", meanLatency(f.DetectionLatencies)),
		fmt.Sprintf("%.4f/cyc/node", f.PostFaultThroughput),
		fmt.Sprint(f.LostAfterEngage), fmt.Sprint(f.Totals.Rerouted), verdict(tputOK))
	t.AddNote("healthy throughput %.4f packets/cycle/node at rate %.2f", healthyTput, p.Run.Rate)
	t.AddNote("det lat = mean cycles from fault injection to watchdog declaration (threshold %d)", p.Run.Watchdog)
	t.AddNote("lost-post = packets born after the last detection that never arrived (acceptance: 0)")
	return t, nil
}
