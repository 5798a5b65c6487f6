// Package sampler is the observability stack's one health sampler. It
// registers a single *serial* kernel phase that, every Every cycles,
// observes the network once — waiting VCs, the window's hottest links,
// buffered and in-flight occupancy, generated packets, ejected flits and
// dead links — runs the network's only health.Monitor over that
// observation, and hands the sample and the transitions it caused to its
// subscribers in subscription order.
//
// The live service's collector (internal/telemetry/serve) and the flight
// recorder (internal/telemetry/flightrec) are subscribers. Each takes the
// sampler in its attach call, so the sampler's phase is registered, and
// runs each cycle, before the recorder's ring phase; /healthz and the
// recorder's dumps judge the same observation at the same cadence by
// construction.
//
// The phase runs behind the merge barriers, single-threaded with respect
// to all simulator state, so samples are byte-identical for any -shards
// setting. The steady-state sampling path allocates
// nothing: every buffer is reused across samples.
package sampler

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/health"
)

// DefaultEvery is the default sampling cadence in cycles.
const DefaultEvery = 256

// maxHotLinks bounds how many of the window's busiest channels a sample
// attributes.
const maxHotLinks = 8

// Config parameterizes the sampler.
type Config struct {
	// Every is the sampling cadence in cycles (default DefaultEvery).
	Every int64

	// Health configures the detectors (zero fields default).
	Health health.Config
}

// Sample is one observation of the network and the detectors' judgment
// of it. The embedded health.Sample's BufOcc counts buffered plus
// in-flight flits, the occupancy the detectors judge. A Sample and its
// slices belong to the sampler and are overwritten by the next sample:
// subscribers copy what they keep.
type Sample struct {
	health.Sample

	// LinkInFlight is the part of BufOcc that is on the wires rather than
	// in router buffers.
	LinkInFlight int64

	// Events are the health transitions this sample caused (nil on steady
	// state); Verdicts and Healthy are every detector's judgment after it.
	Events   []health.Event
	Verdicts []health.Verdict
	Healthy  bool
}

// Sampler owns the sampling phase and the network's health monitor.
type Sampler struct {
	n      *network.Network
	cfg    Config
	minAge int64
	mon    *health.Monitor
	subs   []func(*Sample)

	// Reused across samples; prevFlit holds each link's flits at the
	// previous sample, the hot-link window's baseline.
	s        Sample
	prevFlit []int64
	loadBuf  []health.LinkLoad
}

// Attach registers the sampling phase on the network's kernel and returns
// the sampler. The network must have a telemetry probe (the counter
// fabric a sample reads) and must not have run yet. The hot-link baseline
// rides in checkpoints as the "sampler" extra, so a resumed run's first
// window is the straight run's; resuming a sampler needs one saved.
func Attach(n *network.Network, cfg Config) (*Sampler, error) {
	if n.Probe() == nil {
		return nil, fmt.Errorf("sampler: network has no telemetry probe; enable telemetry to observe it")
	}
	if cfg.Every <= 0 {
		cfg.Every = DefaultEvery
	}
	s := &Sampler{
		n:      n,
		cfg:    cfg,
		minAge: health.MinWaitAge(cfg.Health),
		mon:    health.New(cfg.Health),
	}
	n.Kernel().AddPhase("sampler", s.phase)
	n.AddCheckpointExtra("sampler", s)
	return s, nil
}

// SaveState saves the hot-link window's baseline (empty before the first
// sample).
func (s *Sampler) SaveState(e *checkpoint.Encoder) { e.I64s(s.prevFlit) }

// RestoreState restores a baseline saved with SaveState; hotLinks pads a
// short one with zeros.
func (s *Sampler) RestoreState(d *checkpoint.Decoder) { s.prevFlit = d.I64s() }

// Network reports the sampled network.
func (s *Sampler) Network() *network.Network { return s.n }

// Every reports the effective sampling cadence in cycles.
func (s *Sampler) Every() int64 { return s.cfg.Every }

// Monitor exposes the health monitor for tests. The sampling phase is its
// only writer; read it between Run calls.
func (s *Sampler) Monitor() *health.Monitor { return s.mon }

// Subscribe adds fn to the subscribers the sampling phase calls, in
// subscription order, with every sample. fn runs inside the serial phase,
// so it may read simulator state; it must not keep the Sample. Subscribe
// before the network's first cycle.
func (s *Sampler) Subscribe(fn func(*Sample)) { s.subs = append(s.subs, fn) }

func (s *Sampler) phase(now sim.Cycle) {
	if int64(now)%s.cfg.Every != 0 {
		return
	}
	s.sample(int64(now))
	for _, fn := range s.subs {
		fn(&s.s)
	}
}

// sample observes the network into the reused Sample and folds it
// through the monitor.
func (s *Sampler) sample(now int64) {
	p := s.n.Probe()
	smp := &s.s
	smp.Sample = health.Sample{
		Cycle:            now,
		GeneratedPackets: s.n.Recorder().Generated,
		EjectedFlits:     p.Totals().Ejected,
		BufOcc:           int64(s.n.Occupancy()),
		Waiting:          s.n.AppendWaitingVCs(now, s.minAge, smp.Waiting[:0]),
		HotLinks:         s.hotLinks(p),
		DeadLinks:        p.DeadLinks,
	}
	smp.LinkInFlight = int64(s.n.LinksInFlight())
	smp.Events = s.mon.Observe(smp.Sample)
	smp.Verdicts = s.mon.AppendVerdicts(smp.Verdicts[:0])
	smp.Healthy = s.mon.Healthy()
}

// hotLinks ranks the channels by flits sent since the previous sample,
// hottest first with ties by link index, capped at maxHotLinks. The result
// aliases a reused buffer, valid until the next sample.
func (s *Sampler) hotLinks(p *telemetry.Probe) []health.LinkLoad {
	if len(s.prevFlit) < len(p.Links) {
		s.prevFlit = append(s.prevFlit, make([]int64, len(p.Links)-len(s.prevFlit))...)
	}
	loads := s.loadBuf[:0]
	for i, lp := range p.Links {
		if lp == nil {
			continue
		}
		delta := lp.Flits - s.prevFlit[i]
		s.prevFlit[i] = lp.Flits
		if delta > 0 {
			loads = append(loads, health.LinkLoad{
				Index: lp.Index, From: lp.From, To: lp.To,
				Dir: lp.Dir.String(), Flits: delta,
			})
		}
	}
	// Insertion sort: the slice is small and mostly sorted across windows,
	// and it avoids sort.Slice's closure allocation on the sampling path.
	for i := 1; i < len(loads); i++ {
		for j := i; j > 0 && hotter(loads[j], loads[j-1]); j-- {
			loads[j], loads[j-1] = loads[j-1], loads[j]
		}
	}
	s.loadBuf = loads
	return loads[:min(len(loads), maxHotLinks)]
}

func hotter(a, b health.LinkLoad) bool {
	if a.Flits != b.Flits {
		return a.Flits > b.Flits
	}
	return a.Index < b.Index
}
