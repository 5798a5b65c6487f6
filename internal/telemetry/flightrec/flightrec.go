// Package flightrec is the always-on flight recorder of the observability
// stack: a fixed-size ring of per-cycle event deltas (injections, route
// pops, switch and bypass moves, stall taxonomy, link traffic, deliveries)
// difference-sampled from the telemetry probe's cumulative counters, plus
// periodic full-state keyframes encoded with the internal/checkpoint
// container. When a run wedges, crashes, or an operator asks, the recorder
// freezes the window into a self-describing, CRC-protected dump that
// cmd/nocpost can time-travel through: any recorded cycle is reconstructed
// exactly by restoring the newest keyframe at or before it and re-executing
// the deterministic engine forward.
//
// The recorder judges nothing itself: it subscribes to the network's
// health sampler (internal/telemetry/sampler), keeps the newest sample as
// the dump's attribution material, logs the sampler's detector
// transitions, and queues a dump on every healthy->unhealthy one — so a
// dump always carries exactly what /healthz judged, at the same cadence.
//
// Concurrency and determinism model: like the sampler, the recorder
// registers one *serial* kernel phase that runs behind the merge
// barriers, single-threaded with respect to all simulator state — so the
// ring contents, keyframes, and detector-triggered dumps are byte-identical
// at any -shards setting.
// When the recorder is not attached no phase exists and the cycle loop
// keeps its 0 allocs/op fast path; attached, the steady-state phase writes
// into preallocated buffers and allocates nothing per cycle (keyframe
// encoding amortizes to well under one allocation per cycle).
package flightrec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/sampler"
)

// DefaultWindow is the default ring capacity in cycles.
const DefaultWindow = 4096

// MaxWindow caps the ring capacity a caller may request: at 88 bytes a
// Record, the ring stays under 100 MB.
const MaxWindow = 1 << 20

// DefaultKeyframes is how many keyframes the recorder retains: the window
// spans two keyframe intervals, so three keyframes guarantee one at or
// before every recorded cycle.
const DefaultKeyframes = 3

// maxAutoDumps bounds detector-triggered dumps per run so a flapping
// detector cannot fill the disk.
const maxAutoDumps = 8

// maxEventLog bounds the fault and health transition logs carried in a
// dump; further entries are counted as dropped.
const maxEventLog = 256

// Config parameterizes a Recorder.
type Config struct {
	// Window is the ring capacity in cycles (default DefaultWindow, at
	// most MaxWindow).
	Window int

	// Dir is where dumps are written (default ".").
	Dir string

	// Keyframes is how many keyframes to retain (default DefaultKeyframes).
	Keyframes int

	// ConfigHash fingerprints the run configuration; it is stamped on the
	// dump container and every keyframe so cross-configuration replay is
	// rejected, not silently wrong.
	ConfigHash uint64

	// SpecJSON is the run's serialized self-description (core.SimSpec),
	// carried in the dump so nocpost can rebuild the network for replay.
	// Empty disables replay (ring and verdict still work).
	SpecJSON []byte

	// SpecKind names what SpecJSON rebuilds ("run", "campaign", "trace").
	// Only "run" supports replay.
	SpecKind string
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Dir == "" {
		c.Dir = "."
	}
	if c.Keyframes <= 0 {
		c.Keyframes = DefaultKeyframes
	}
	return c
}

// Record is one cycle's event deltas — fixed size, pointer-free, so the
// ring is a flat preallocated array the steady-state phase writes in
// place. Cycle counts *completed* cycles (the checkpoint convention), so a
// record at cycle C describes the cycle whose state a checkpoint at C
// captures. Delta fields are the change over that one cycle; BufOcc and
// LinkInFlight are instantaneous; DeadLinks and FaultsApplied are the
// cumulative totals at the record instant (transitions are in the fault
// log with exact cycles).
type Record struct {
	Cycle int64

	Injected    uint32 // flits accepted from tile injection ports
	Ejected     uint32 // flits delivered through tile output ports
	Routed      uint32 // route-field pops
	SwitchMoves uint32 // flits across crossbars
	BypassMoves uint32 // reserved-VC flits through the bypass

	ArbLosses    uint32 // switch requests that lost arbitration
	CreditStalls uint32 // waits blocked on downstream credits/VCs
	StageStalls  uint32 // waits blocked on an occupied staging buffer

	LinkFlits uint32 // flits that entered channel wires
	HeadFlits uint32
	Credits   uint32 // credits returned upstream

	DeliveredFlits   uint32 // flits of fully reassembled packets
	DeliveredPackets uint32
	AbortedPackets   uint32
	Generated        uint32 // packets created by clients

	BufOcc       uint32 // flits buffered in routers (instantaneous)
	LinkInFlight uint32 // flits on the wires (instantaneous)

	DeadLinks     uint32 // cumulative watchdog fail-stop declarations
	FaultsApplied uint32 // cumulative injector events that took effect
}

// FaultEvent is one fault transition forwarded from the probe: an applied
// injector event or a watchdog fail-stop declaration.
type FaultEvent struct {
	Cycle int64
	// Kind is 0 for an injector fault (A = injector kind, B = where) and
	// 1 for a link declared dead (A = link index).
	Kind uint8
	A, B int32
}

// Keyframe is one retained full-state checkpoint.
type Keyframe struct {
	Cycle int64
	Data  []byte
}

// TriggerSample is the attribution material captured at the newest health
// sample before a dump: exactly what the live detectors judged, so nocpost
// can recompute the verdict independently and cross-check it against the
// recorded live attribution.
type TriggerSample struct {
	Cycle        int64
	BufOcc       int64
	Generated    int64
	EjectedFlits int64
	DeadLinks    int
	Waiting      []health.VCWait
	HotLinks     []health.LinkLoad
}

// DumpResult is the outcome of an asynchronous dump request.
type DumpResult struct {
	Path string
	Err  error
}

type dumpReq struct {
	reason string
	done   chan DumpResult
}

// Recorder owns the ring, the keyframes, and the dump triggers. The
// fields above the request queue are written only inside serial kernel
// phases (or by Attach, before the first cycle).
type Recorder struct {
	n     *network.Network
	cfg   Config
	every int64 // the sampler's cadence, stamped on every dump

	ring  []Record
	next  int // ring slot the next record lands in
	count int // valid records, saturating at len(ring)

	// prev and prevGenerated are the cumulative counters the next record
	// differences against.
	prev          telemetry.Totals
	prevGenerated int64

	keyframes []Keyframe // oldest first
	kfEvery   int64
	kfErr     error // first keyframe failure; disables further attempts

	last TriggerSample // newest sample's attribution material (reused buffers)

	faultLog    []FaultEvent
	faultDrops  int64
	healthLog   []health.Event
	healthDrops int64

	autoDumps int
	dumpSeq   int

	// Dump reasons queued by detector transitions (the sampler's phase)
	// and SLO burns (the latency observatory's phase), both of which run
	// earlier in the same cycle; written by the ring phase after the
	// cycle's record, where a fresh keyframe is safe.
	autoPending []string

	// Asynchronous dump requests (SIGQUIT handler, /debug/flightrec).
	// hasPending keeps the per-cycle fast path to one atomic load.
	hasPending atomic.Bool
	reqMu      sync.Mutex
	requests   []dumpReq

	mu      sync.Mutex
	dumps   []string
	dumpErr error
}

// Attach subscribes a recorder to the sampler and registers the
// recorder's ring phase on the sampled network's kernel, after the
// sampler's. The sampler guarantees the telemetry probe the deltas
// difference; the network must not have run yet. The phase is serial,
// so it composes with any -shards setting without perturbing results. A
// restore into the network (a resume) rebases the deltas on the restored
// counters, so the next record is that cycle's, not every event since 0.
func Attach(smp *sampler.Sampler, cfg Config) *Recorder {
	n := smp.Network()
	cfg = cfg.withDefaults()
	r := &Recorder{
		n:     n,
		cfg:   cfg,
		every: smp.Every(),
		ring:  make([]Record, cfg.Window),
	}
	r.kfEvery = int64(cfg.Window / 2)
	if r.kfEvery < 1 {
		r.kfEvery = 1
	}
	r.keyframes = make([]Keyframe, 0, cfg.Keyframes)
	smp.Subscribe(r.onSample)
	n.OnRestore(func() { r.prev, r.prevGenerated = n.Probe().Totals(), n.Recorder().Generated })
	n.Probe().SetEventSink(r)
	n.Kernel().AddPhase("flightrec", r.phase)
	n.Kernel().SetCrashHook(r.onCrash)
	return r
}

// Dumps reports the dump files written so far.
func (r *Recorder) Dumps() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.dumps...)
}

// Err reports the first dump-write failure, if any.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dumpErr
}

// OnFault implements telemetry.EventSink: fault-injector events arrive
// from the injector's serial phase.
func (r *Recorder) OnFault(now int64, kind, where int) {
	r.logFault(FaultEvent{Cycle: now, Kind: 0, A: int32(kind), B: int32(where)})
}

// OnLinkDead implements telemetry.EventSink: watchdog fail-stop
// declarations arrive from the serial watchdog phase.
func (r *Recorder) OnLinkDead(index int, now int64) {
	r.logFault(FaultEvent{Cycle: now, Kind: 1, A: int32(index)})
}

// OnSLOBurn implements the latency observatory's BurnSink: an SLO
// burn-rate transition lands in the health event log (so nocpost
// verdicts show it alongside the detector transitions) and a burning
// transition queues a dump for this cycle's recorder phase. The
// observatory's evaluation phase runs earlier in the same serial cycle,
// so the dump's ring and fresh keyframe include the burn cycle itself.
func (r *Recorder) OnSLOBurn(now int64, flow string, ev health.Event) {
	r.logHealth(ev)
	if !ev.Healthy {
		r.queueDump("slo-burn-" + flow)
	}
}

// onSample keeps the newest sample's attribution material for the next
// dump, logs the detector transitions it caused, and queues one dump,
// named for the first detector to trip, when any of them went unhealthy.
func (r *Recorder) onSample(s *sampler.Sample) {
	r.last.Cycle = s.Cycle
	r.last.BufOcc = s.BufOcc
	r.last.Generated = s.GeneratedPackets
	r.last.EjectedFlits = s.EjectedFlits
	r.last.DeadLinks = s.DeadLinks
	r.last.Waiting = append(r.last.Waiting[:0], s.Waiting...)
	r.last.HotLinks = append(r.last.HotLinks[:0], s.HotLinks...)

	reason := ""
	for _, ev := range s.Events {
		r.logHealth(ev)
		if !ev.Healthy && reason == "" {
			reason = "detector-" + ev.Detector
		}
	}
	if reason != "" {
		r.queueDump(reason)
	}
}

func (r *Recorder) logHealth(ev health.Event) {
	if len(r.healthLog) >= maxEventLog {
		r.healthDrops++
		return
	}
	r.healthLog = append(r.healthLog, ev)
}

// queueDump schedules an automatic dump for this cycle's ring phase.
// Detector and SLO-burn dumps share one per-run cap.
func (r *Recorder) queueDump(reason string) {
	if r.autoDumps < maxAutoDumps {
		r.autoDumps++
		r.autoPending = append(r.autoPending, reason)
	}
}

func (r *Recorder) logFault(ev FaultEvent) {
	if len(r.faultLog) >= maxEventLog {
		r.faultDrops++
		return
	}
	r.faultLog = append(r.faultLog, ev)
}

// RequestDump asks the serial phase to write a dump at the next cycle
// boundary and returns a channel carrying the result. Safe to call from
// any goroutine (signal handlers, HTTP).
func (r *Recorder) RequestDump(reason string) <-chan DumpResult {
	req := dumpReq{reason: reason, done: make(chan DumpResult, 1)}
	r.reqMu.Lock()
	r.requests = append(r.requests, req)
	r.reqMu.Unlock()
	r.hasPending.Store(true)
	return req.done
}

// TriggerDump requests a dump and waits for it, implementing the serve
// package's DumpTrigger so /debug/flightrec can drive the recorder. The
// timeout guards against a simulation that has already exited (no phase
// will ever drain the request).
func (r *Recorder) TriggerDump(reason string) (string, error) {
	select {
	case res := <-r.RequestDump(reason):
		return res.Path, res.Err
	case <-time.After(10 * time.Second):
		return "", fmt.Errorf("flightrec: dump request timed out (simulation stopped?)")
	}
}

// phase is the per-cycle serial recorder body.
func (r *Recorder) phase(now sim.Cycle) {
	cycle := int64(now) + 1 // completed cycles once this cycle's phases finish

	r.record(cycle)

	if r.kfErr == nil && cycle%r.kfEvery == 0 {
		r.keyframe(cycle)
	}
	for _, reason := range r.autoPending {
		r.dump(cycle, reason, true)
	}
	r.autoPending = r.autoPending[:0]
	if r.hasPending.Load() {
		r.drainRequests(cycle)
	}
}

// record differences the probe's cumulative counters into the next ring
// slot. One Totals pass; no allocation.
func (r *Recorder) record(cycle int64) {
	p := r.n.Probe()
	cur := p.Totals()
	generated := r.n.Recorder().Generated

	inFlight := r.n.LinksInFlight()
	bufOcc := r.n.Occupancy() - inFlight

	r.ring[r.next] = Record{
		Cycle:            cycle,
		Injected:         uint32(cur.InjectedFlits - r.prev.InjectedFlits),
		Ejected:          uint32(cur.Ejected - r.prev.Ejected),
		Routed:           uint32(cur.Routed - r.prev.Routed),
		SwitchMoves:      uint32(cur.SwitchMoves - r.prev.SwitchMoves),
		BypassMoves:      uint32(cur.BypassMoves - r.prev.BypassMoves),
		ArbLosses:        uint32(cur.ArbLosses - r.prev.ArbLosses),
		CreditStalls:     uint32(cur.CreditStalls - r.prev.CreditStalls),
		StageStalls:      uint32(cur.StageStalls - r.prev.StageStalls),
		LinkFlits:        uint32(cur.Flits - r.prev.Flits),
		HeadFlits:        uint32(cur.HeadFlits - r.prev.HeadFlits),
		Credits:          uint32(cur.Credits - r.prev.Credits),
		DeliveredFlits:   uint32(cur.DeliveredFlits - r.prev.DeliveredFlits),
		DeliveredPackets: uint32(cur.DeliveredPackets - r.prev.DeliveredPackets),
		AbortedPackets:   uint32(cur.AbortedPackets - r.prev.AbortedPackets),
		Generated:        uint32(generated - r.prevGenerated),
		BufOcc:           uint32(bufOcc),
		LinkInFlight:     uint32(inFlight),
		DeadLinks:        uint32(p.DeadLinks),
		FaultsApplied:    uint32(p.FaultsApplied),
	}
	r.prev, r.prevGenerated = cur, generated
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	if r.count < len(r.ring) {
		r.count++
	}
}

// keyframe snapshots the full simulation state at the given completed
// cycle, rotating out the oldest retained keyframe. A configuration the
// checkpoint layer cannot cover disables keyframes for the run (the ring
// and verdicts still record); the error is carried in every dump.
func (r *Recorder) keyframe(cycle int64) {
	data, err := r.n.SaveCheckpoint(r.cfg.ConfigHash, cycle)
	if err != nil {
		r.kfErr = err
		r.keyframes = r.keyframes[:0]
		return
	}
	if len(r.keyframes) == cap(r.keyframes) {
		copy(r.keyframes, r.keyframes[1:])
		r.keyframes = r.keyframes[:len(r.keyframes)-1]
	}
	r.keyframes = append(r.keyframes, Keyframe{Cycle: cycle, Data: data})
}

// drainRequests serves queued asynchronous dump requests in-phase, where
// touching simulator state is safe.
func (r *Recorder) drainRequests(cycle int64) {
	r.reqMu.Lock()
	reqs := r.requests
	r.requests = nil
	r.hasPending.Store(false)
	r.reqMu.Unlock()
	for _, req := range reqs {
		path, err := r.dump(cycle, req.reason, true)
		req.done <- DumpResult{Path: path, Err: err}
	}
}

// onCrash is the kernel crash hook: a panic is unwinding the cycle loop,
// so simulator state is mid-cycle and unsafe to re-enter — the dump
// carries the ring and the already-taken keyframes, but no fresh one.
func (r *Recorder) onCrash(now sim.Cycle, _ any) {
	r.dump(int64(now), "panic", false)
}

// dump freezes the window into a dump file. fresh asks for a keyframe at
// the trigger cycle itself (only safe in-phase, at a cycle boundary).
func (r *Recorder) dump(cycle int64, reason string, fresh bool) (string, error) {
	if fresh && r.kfErr == nil {
		if n := len(r.keyframes); n == 0 || r.keyframes[n-1].Cycle < cycle {
			r.keyframe(cycle)
		}
	}
	r.dumpSeq++
	data := r.encode(cycle, reason)
	path, err := writeDump(r.cfg.Dir, cycle, r.dumpSeq, reason, data)
	r.mu.Lock()
	if err != nil {
		if r.dumpErr == nil {
			r.dumpErr = err
		}
	} else {
		r.dumps = append(r.dumps, path)
	}
	r.mu.Unlock()
	return path, err
}
