// Package serve is the live observability service: it snapshots the
// telemetry probe of a running network at cycle boundaries and serves the
// copies over an embedded HTTP server — /metrics (Prometheus text
// exposition), /snapshot (full JSON including the k×k heatmap), /healthz
// (the health sampler's detector verdicts), and /events (SSE stream of
// health transitions and sampled rows).
//
// Concurrency model: the collector is a subscriber of the network's
// health sampler (internal/telemetry/sampler), whose phase is *serial*
// (like the clients phase), so under -shards it runs on the barrier side
// of the worker pool — single-threaded with respect to all simulator
// state, and byte-identical for any shard count. Each sample it
// value-copies every counter it reads into a mutex-guarded set of reused
// buffers; the immutable Snapshot handed to readers is deep-copied from
// those buffers lazily — on the first Latest call after the sample, or
// in-phase when a mirror or SSE subscriber needs every sample — so HTTP
// handlers never touch simulator state and the steady-state sampling
// path allocates nothing. When serve is not attached, nothing is
// registered and the cycle loop keeps its 0 allocs/cycle fast path.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/latency"
	"repro/internal/telemetry/sampler"
)

// Config parameterizes the collector. The snapshot cadence and the
// detector thresholds are the health sampler's.
type Config struct {
	// Flows is the per-flow latency observatory to publish, when one is
	// attached to the same network: snapshots carry its top flows and
	// burning SLO rows, and an SLO burn degrades /healthz with the
	// observatory's attribution. Attach the observatory before the
	// sampler so each sample sees the cycle's fresh verdicts.
	Flows *latency.Observatory
}

// seriesTail bounds how many trailing series rows each snapshot carries
// (the probe's series must be enabled for there to be any).
const seriesTail = 64

// ExportedQuantiles are the latency quantiles every snapshot (and the
// Prometheus summary rendering) carries.
var ExportedQuantiles = []float64{0.5, 0.9, 0.99, 1}

// Quantile is one exported quantile value.
type Quantile struct {
	Q float64 `json:"q"`
	V int64   `json:"v"`
}

// LatencySnap is the copied summary of one latency histogram.
type LatencySnap struct {
	// Name identifies the series: "packet", "network", or "class<k>".
	Name      string     `json:"name"`
	Class     int        `json:"class"` // service class; -1 for aggregates
	Count     int64      `json:"count"`
	Sum       int64      `json:"sum"`
	Mean      float64    `json:"mean"`
	Quantiles []Quantile `json:"quantiles"`
	// Overflowed reports that samples escaped the histogram's exact
	// bucket range (quantiles are still exact; see stats.Hist).
	Overflowed bool `json:"overflowed,omitempty"`
}

// LatencyFrom copies a histogram's headline figures and the exported
// quantiles. It shares latencyInto, the code path behind both /snapshot
// and the /metrics summary rendering, so the property test that compares
// exported quantiles against Hist.Quantile covers what the endpoints serve.
func LatencyFrom(name string, class int, h *stats.Hist) LatencySnap {
	return latencyInto(nil, name, class, h)[0]
}

// Snapshot is one published copy of the network's observable state. All
// fields are plain data owned by the snapshot: nothing aliases simulator
// state, so readers need no locks.
type Snapshot struct {
	Cycle int64 `json:"cycle"`

	Healthy bool             `json:"healthy"`
	Health  []health.Verdict `json:"health"`

	Generated        int64   `json:"generated_packets"`
	InjectedPackets  int64   `json:"injected_packets"`
	DeliveredPackets int64   `json:"delivered_packets"`
	DeliveredFlits   int64   `json:"delivered_flits"`
	Throughput       float64 `json:"throughput_flits_per_cycle"`

	BufOcc       int64 `json:"buf_occ"`
	LinkInFlight int64 `json:"link_in_flight"`

	DeadLinks      int   `json:"dead_links"`
	FaultsApplied  int64 `json:"faults_applied"`
	OverUnityLinks int   `json:"over_unity_links"`

	// Route lookups served from the route table versus computed: zero
	// misses on a fault-free network unless a route is too long for a
	// Word, and every route is computed once a link is dead.
	// Deterministic within an uninterrupted run — the lookup totals are a
	// pure function of the traffic — but they count from the network's
	// last build or Reset, so these are operational figures, never
	// checkpointed.
	RouteTableHits   int64 `json:"route_table_hits"`
	RouteTableMisses int64 `json:"route_table_misses"`

	// Checkpointing: the cycle of the newest durable snapshot (-1 when
	// none has been taken), cycles elapsed since it (measured from cycle
	// 0 when none), the configured interval (0 = checkpointing off), and
	// whether the age exceeds twice the interval — the staleness
	// condition that degrades /healthz.
	LastCheckpointCycle int64 `json:"last_checkpoint_cycle"`
	CheckpointAge       int64 `json:"checkpoint_age_cycles"`
	CheckpointEvery     int64 `json:"checkpoint_every,omitempty"`
	CheckpointStale     bool  `json:"checkpoint_stale,omitempty"`

	Latency []LatencySnap `json:"latency"`

	// Flows is the per-flow latency observatory's top flows by packet
	// count (bounded by its MaxFlows); SLO is one row per burning
	// flow-objective pair. Both empty when no observatory is attached.
	Flows []latency.FlowSnap `json:"flows,omitempty"`
	SLO   []latency.SLOSnap  `json:"slo,omitempty"`

	Routers  []telemetry.RouterSnap `json:"routers"`
	Links    []telemetry.LinkSnap   `json:"links"`
	HotLinks []health.LinkLoad      `json:"hot_links,omitempty"`

	// Heatmap is the k×k per-tile mean outgoing duty factor, row y=k-1
	// first (same orientation as the ASCII heatmap).
	Heatmap [][]float64 `json:"heatmap,omitempty"`

	Series []telemetry.SeriesRow `json:"series,omitempty"`
}

// Collector turns the health sampler's samples into published snapshots.
type Collector struct {
	n   *network.Network
	cfg Config

	// Serial-phase scratch, reused across samples.
	classBuf   []int
	classNames map[int]string

	// raw accumulates each sample into reused buffers; built is the
	// immutable Snapshot derived from it on demand (Latest), so the
	// steady-state sampling path allocates nothing while nobody is
	// watching. rawSeq counts samples; builtSeq marks the sample built
	// last, so repeat Latest calls between samples share one snapshot.
	mu        sync.Mutex
	raw       Snapshot
	rawSeq    uint64
	builtSeq  uint64
	built     *Snapshot
	subs      map[*Subscriber]struct{}
	mirror    io.Writer
	mirrorErr error
}

// AttachCollector subscribes a collector to the sampler and returns it;
// the collector publishes one snapshot per sample. Attach before the
// network's first cycle.
func AttachCollector(smp *sampler.Sampler, cfg Config) *Collector {
	c := &Collector{
		n:          smp.Network(),
		cfg:        cfg,
		classNames: make(map[int]string),
		subs:       make(map[*Subscriber]struct{}),
	}
	smp.Subscribe(c.sample)
	return c
}

// Latest returns the most recently published snapshot (nil before the
// first sample). The snapshot is immutable; callers may hold it as long
// as they like.
func (c *Collector) Latest() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.latestLocked()
}

// latestLocked returns the immutable snapshot of the newest sample,
// deep-copying the reused sample buffers on the first demand after each
// sample and serving the cached copy until the next one.
func (c *Collector) latestLocked() *Snapshot {
	if c.rawSeq == 0 {
		return nil
	}
	if c.builtSeq != c.rawSeq {
		c.built = c.raw.clone()
		c.builtSeq = c.rawSeq
	}
	return c.built
}

func cloneSlice[T any](s []T) []T {
	if s == nil {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// clone deep-copies the snapshot so the result shares no memory with the
// collector's reused sample buffers.
func (s *Snapshot) clone() *Snapshot {
	out := *s
	out.Health = cloneSlice(s.Health)
	out.Latency = cloneSlice(s.Latency)
	for i := range out.Latency {
		out.Latency[i].Quantiles = cloneSlice(out.Latency[i].Quantiles)
	}
	out.Flows = cloneSlice(s.Flows)
	out.SLO = cloneSlice(s.SLO)
	for i := range out.SLO {
		out.SLO[i].Exemplars = cloneSlice(out.SLO[i].Exemplars)
	}
	out.Routers = cloneSlice(s.Routers)
	out.Links = cloneSlice(s.Links)
	out.HotLinks = cloneSlice(s.HotLinks)
	out.Heatmap = cloneSlice(s.Heatmap)
	for i := range out.Heatmap {
		out.Heatmap[i] = cloneSlice(out.Heatmap[i])
	}
	out.Series = cloneSlice(s.Series)
	return &out
}

// SetMirror directs a copy of every published snapshot, JSON-encoded one
// per line, to w. The determinism suite compares these byte streams
// across shard counts. Must be set before the simulation runs.
func (c *Collector) SetMirror(w io.Writer) { c.mirror = w }

// MirrorErr reports the first error writing to the mirror, if any.
func (c *Collector) MirrorErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mirrorErr
}

// subQueue is each subscriber's bounded frame queue depth. A client that
// cannot drain this many frames is stalled; further frames are dropped
// and counted rather than ever blocking the publisher (the simulation's
// serial phase).
const subQueue = 32

// Subscriber is one /events client's bounded queue of pre-rendered SSE
// frames. Slow or stalled clients miss frames — never stall the
// simulation — and the miss count is reported on the stream when the
// client catches back up.
type Subscriber struct {
	ch      chan []byte
	dropped atomic.Int64
}

// C is the frame channel the client drains.
func (s *Subscriber) C() <-chan []byte { return s.ch }

// Dropped reports how many frames have been dropped on this subscriber's
// queue so far.
func (s *Subscriber) Dropped() int64 { return s.dropped.Load() }

// Subscribe registers an SSE subscriber. Slow subscribers miss frames
// (counted per subscriber) rather than stalling the simulation.
func (c *Collector) Subscribe() *Subscriber {
	sub := &Subscriber{ch: make(chan []byte, subQueue)}
	c.mu.Lock()
	c.subs[sub] = struct{}{}
	c.mu.Unlock()
	return sub
}

// Unsubscribe removes a subscriber registered with Subscribe.
func (c *Collector) Unsubscribe(sub *Subscriber) {
	c.mu.Lock()
	delete(c.subs, sub)
	c.mu.Unlock()
}

// sample records one health sample (serially, inside the sampler's phase)
// into the reused raw buffers. The published immutable Snapshot is only
// materialised when someone is actually watching (Latest, a mirror, or
// SSE subscribers), keeping the steady-state sampling path free of
// per-sample allocation.
func (c *Collector) sample(s *sampler.Sample) {
	p := c.n.Probe()
	rec := c.n.Recorder()
	now := s.Cycle

	lastCkpt, haveCkpt := c.n.LastCheckpoint()
	ckptEvery := c.n.CheckpointInterval()
	ckptAge := now
	if haveCkpt {
		ckptAge = now - lastCkpt
	} else {
		lastCkpt = -1
	}
	ckptStale := ckptEvery > 0 && ckptAge > 2*ckptEvery

	c.mu.Lock()
	snap := &c.raw
	snap.Cycle = now
	snap.Healthy = s.Healthy && !ckptStale
	snap.Health = append(snap.Health[:0], s.Verdicts...)
	snap.Generated = rec.Generated
	snap.InjectedPackets = rec.InjectedPackets
	snap.DeliveredPackets = rec.DeliveredPackets
	snap.DeliveredFlits = rec.DeliveredFlits
	snap.Throughput = rec.ThroughputFlitsPerCycle(now)
	snap.BufOcc = s.BufOcc - s.LinkInFlight
	snap.LinkInFlight = s.LinkInFlight
	snap.DeadLinks = p.DeadLinks
	snap.FaultsApplied = p.FaultsApplied
	snap.OverUnityLinks = p.OverUnityLinks(now)
	snap.RouteTableHits, snap.RouteTableMisses = c.n.RouteTableStats()
	snap.Routers = p.SnapshotRouters(snap.Routers)
	snap.Links = p.SnapshotLinks(snap.Links, now)
	snap.HotLinks = append(snap.HotLinks[:0], s.HotLinks...)
	snap.Heatmap = p.AppendHeatmapGrid(snap.Heatmap, now)
	snap.Series = p.SnapshotSeriesTail(snap.Series, seriesTail)
	snap.LastCheckpointCycle = lastCkpt
	snap.CheckpointAge = ckptAge
	snap.CheckpointEvery = ckptEvery
	snap.CheckpointStale = ckptStale
	if ckptStale {
		// Attribute the degradation alongside the detector verdicts so
		// /healthz readers see why the service reports unhealthy.
		detail := fmt.Sprintf("last checkpoint at cycle %d is %d cycles old (> 2x interval %d)",
			lastCkpt, ckptAge, ckptEvery)
		since := lastCkpt + 2*ckptEvery
		if !haveCkpt {
			detail = fmt.Sprintf("no checkpoint after %d cycles (> 2x interval %d)", ckptAge, ckptEvery)
			since = 2 * ckptEvery
		}
		snap.Health = append(snap.Health, health.Verdict{
			Detector: "checkpoint",
			Healthy:  false,
			Since:    since,
			Detail:   detail,
		})
	}
	snap.Latency = latencyInto(snap.Latency[:0], "packet", -1, rec.PacketLatency)
	snap.Latency = latencyInto(snap.Latency, "network", -1, rec.NetworkLatency)
	c.classBuf = rec.AppendClasses(c.classBuf)
	for _, class := range c.classBuf {
		snap.Latency = latencyInto(snap.Latency, c.className(class), class, rec.ClassLatency(class))
	}
	snap.Flows = snap.Flows[:0]
	snap.SLO = snap.SLO[:0]
	if fl := c.cfg.Flows; fl != nil {
		snap.Flows = fl.AppendFlowSnaps(snap.Flows)
		snap.SLO = fl.AppendSLOSnaps(snap.SLO)
		snap.Health = fl.AppendVerdicts(snap.Health)
		snap.Healthy = snap.Healthy && fl.Healthy()
	}
	c.rawSeq++
	// Materialise the immutable copy in-phase only for consumers that
	// need every sample; HTTP readers build it on demand via Latest.
	var out *Snapshot
	if c.mirror != nil || len(c.subs) > 0 {
		out = c.latestLocked()
	}
	mirror := c.mirror
	c.mu.Unlock()

	if mirror != nil {
		if err := json.NewEncoder(mirror).Encode(out); err != nil {
			c.mu.Lock()
			if c.mirrorErr == nil {
				c.mirrorErr = err
			}
			c.mu.Unlock()
		}
	}
	if out != nil {
		c.broadcast(out, s.Events)
	}
}

// className caches the "class<k>" latency series names so steady-state
// samples skip the Sprintf.
func (c *Collector) className(class int) string {
	if name, ok := c.classNames[class]; ok {
		return name
	}
	name := fmt.Sprintf("class%d", class)
	c.classNames[class] = name
	return name
}

// latencyInto appends the summary of h to dst, reusing the Quantiles
// buffer left in the slot by an earlier sample when dst's capacity holds
// one.
func latencyInto(dst []LatencySnap, name string, class int, h *stats.Hist) []LatencySnap {
	var q []Quantile
	if n := len(dst); n < cap(dst) {
		q = dst[:n+1][n].Quantiles[:0]
	}
	ls := LatencySnap{Name: name, Class: class, Quantiles: q}
	if h != nil {
		ls.Count = h.Count()
		ls.Sum = h.Sum()
		ls.Mean = h.Mean()
		ls.Overflowed = h.Overflowed()
		for _, qq := range ExportedQuantiles {
			ls.Quantiles = append(ls.Quantiles, Quantile{Q: qq, V: h.Quantile(qq)})
		}
	}
	return append(dst, ls)
}

// sampleRow is the compact per-sample SSE payload.
type sampleRow struct {
	Cycle          int64   `json:"cycle"`
	Healthy        bool    `json:"healthy"`
	Generated      int64   `json:"generated_packets"`
	DeliveredFlits int64   `json:"delivered_flits"`
	Throughput     float64 `json:"throughput_flits_per_cycle"`
	BufOcc         int64   `json:"buf_occ"`
	LinkInFlight   int64   `json:"link_in_flight"`
}

// broadcast renders SSE frames for the sample row and any health
// transitions and fans them out to subscribers without blocking.
func (c *Collector) broadcast(snap *Snapshot, events []health.Event) {
	c.mu.Lock()
	n := len(c.subs)
	c.mu.Unlock()
	if n == 0 {
		return
	}
	var frames [][]byte
	row, err := json.Marshal(sampleRow{
		Cycle:          snap.Cycle,
		Healthy:        snap.Healthy,
		Generated:      snap.Generated,
		DeliveredFlits: snap.DeliveredFlits,
		Throughput:     snap.Throughput,
		BufOcc:         snap.BufOcc,
		LinkInFlight:   snap.LinkInFlight,
	})
	if err == nil {
		frames = append(frames, []byte("event: sample\ndata: "+string(row)+"\n\n"))
	}
	for _, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			continue
		}
		frames = append(frames, []byte("event: health\ndata: "+string(b)+"\n\n"))
	}
	c.mu.Lock()
	for sub := range c.subs {
		for _, f := range frames {
			select {
			case sub.ch <- f:
			default:
				// Stalled subscriber: drop the frame and count the miss;
				// the publisher (a serial simulation phase) never blocks.
				sub.dropped.Add(1)
			}
		}
	}
	c.mu.Unlock()
}
