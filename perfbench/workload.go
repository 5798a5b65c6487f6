package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// workload is one set of simulator inputs. Every workload runs the
// credit-based virtual-channel router on one shard (a single-threaded
// cycle loop), so all of them report the same phases and counters.
type workload struct {
	name string

	mesh     bool // 2-D mesh instead of the paper's folded torus
	k        int  // k x k tiles
	adaptive bool // west-first adaptive routing (mesh only)

	rate               float64 // offered flits/cycle/tile
	minFlits, maxFlits int     // packet length range, uniform
	window             int     // 0: uniform destinations; >0: within ±window per dimension

	warmup int64 // recorder warmup horizon, cycles
	cycles int64 // injection horizon: packets are born in [0, cycles)
}

// workloads is the benchmark's workload table; BENCHMARK.json lists the
// same names and says why each was chosen.
var workloads = []workload{
	{
		name: "baseline16",
		k:    4, rate: 0.3, minFlits: 1, maxFlits: 4,
		warmup: 1000, cycles: 24000,
	},
	{
		// A load-latency sweep of this network with 2-flit packets saturates
		// at about 0.75 accepted flits/tile/cycle; at 0.70 every offered flit
		// is still accepted and the backlog stays bounded, but the mean
		// packet latency is about 31 cycles against 15 at 0.40. Closer to
		// saturation the work a run does varies more from seed to seed.
		name: "saturate64",
		k:    8, rate: 0.70, minFlits: 2, maxFlits: 2,
		warmup: 500, cycles: 2500,
	},
	{
		name: "sparse1024",
		k:    32, rate: 0.02, minFlits: 1, maxFlits: 4, window: 3,
		warmup: 500, cycles: 2000,
	},
	{
		name: "adaptive64",
		mesh: true, k: 8, adaptive: true, rate: 0.2, minFlits: 1, maxFlits: 3,
		warmup: 500, cycles: 6000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w workload) tiles() int { return w.k * w.k }

// hops is the minimal hop count between two tiles, computed from the
// logical coordinates alone, independently of the simulator's router.
func (w workload) hops(src, dst int) int {
	dx := abs(src%w.k - dst%w.k)
	dy := abs(src/w.k - dst/w.k)
	if !w.mesh {
		dx = min(dx, w.k-dx)
		dy = min(dy, w.k-dy)
	}
	return dx + dy
}

// zeroLoad is the paper's zero-load network latency T0 = H·t_r + L/b for
// this simulator's timing: one injection and one ejection stage, a
// router traversal plus a one-cycle wire per hop, and one cycle per body
// flit on full-width links.
func zeroLoad(hops, flits int) int64 { return int64(2 + 2*hops + flits - 1) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// event is one packet of the generated input: born at cycle at on tile
// src, bound for dst, flits long.
type event struct {
	at    int64
	src   int32
	dst   int32
	flits int32
	hops  int32
}

// inputs is a workload's generated traffic: every packet, ordered by
// source tile then birth cycle, with each tile's packets a contiguous
// run starting at first[tile].
type inputs struct {
	events []event
	first  []int
	flits  int64 // total flits offered
}

// generate draws the workload's packets from seed. The same seed always
// yields the same packets; the simulator sees only the result.
func (w workload) generate(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	tiles := w.tiles()
	meanFlits := float64(w.minFlits+w.maxFlits) / 2
	prob := w.rate / meanFlits
	in := inputs{first: make([]int, tiles+1)}
	for src := 0; src < tiles; src++ {
		in.first[src] = len(in.events)
		for at := int64(0); at < w.cycles; at++ {
			if rng.Float64() >= prob {
				continue
			}
			dst := w.pick(src, rng)
			flits := w.minFlits + rng.Intn(w.maxFlits-w.minFlits+1)
			in.events = append(in.events, event{
				at: at, src: int32(src), dst: int32(dst), flits: int32(flits),
				hops: int32(w.hops(src, dst)),
			})
			in.flits += int64(flits)
		}
	}
	in.first[tiles] = len(in.events)
	return in
}

// pick draws a destination other than src.
func (w workload) pick(src int, rng *rand.Rand) int {
	tiles := w.tiles()
	if w.window == 0 {
		d := rng.Intn(tiles - 1)
		if d >= src {
			d++
		}
		return d
	}
	span := 2*w.window + 1
	for {
		dx := rng.Intn(span) - w.window
		dy := rng.Intn(span) - w.window
		if dx == 0 && dy == 0 {
			continue
		}
		x := (src%w.k + dx + w.k) % w.k
		y := (src/w.k + dy + w.k) % w.k
		return y*w.k + x
	}
}

// zeroLoadProbes draws isolated packets for the zero-load check: source,
// destination, and length, one packet in the network at a time.
func (w workload) zeroLoadProbes(seed int64, count int) []event {
	rng := rand.New(rand.NewSource(seed ^ 0x5EED))
	out := make([]event, count)
	for i := range out {
		src := rng.Intn(w.tiles())
		dst := w.pick(src, rng)
		flits := w.minFlits + rng.Intn(w.maxFlits-w.minFlits+1)
		out[i] = event{src: int32(src), dst: int32(dst), flits: int32(flits), hops: int32(w.hops(src, dst))}
	}
	return out
}

// setupTimes is the host time one network construction spent in each
// layer it calls.
type setupTimes struct {
	topology, routeTable, network float64 // seconds
}

func (s setupTimes) total() float64 { return s.topology + s.routeTable + s.network }

func (s setupTimes) scaled(f float64) setupTimes {
	return setupTimes{topology: s.topology * f, routeTable: s.routeTable * f, network: s.network * f}
}

// build constructs the workload's network from scratch, timing each layer
// in process CPU time: the topology and its channel list, the all-pairs
// source-route table, and the network itself (routers, links, ports).
func (w workload) build(shards int, probe *telemetry.Probe) (*network.Network, setupTimes, error) {
	var st setupTimes
	t0 := cpuNow()
	var topo topology.Topology
	var err error
	if w.mesh {
		topo, err = topology.NewMesh(w.k, w.k)
	} else {
		topo, err = topology.NewFoldedTorus(w.k, w.k)
	}
	if err != nil {
		return nil, st, err
	}
	adj := topology.Links(topo)
	t1 := cpuNow()
	table := route.BuildTable(topo, topo.NumTiles())
	t2 := cpuNow()
	n, err := network.New(network.Config{
		Topo:       topo,
		Adjacency:  adj,
		RouteTable: table,
		Router:     router.DefaultConfig(0),
		Adaptive:   w.adaptive,
		Warmup:     w.warmup,
		Seed:       1,
		Shards:     shards,
		Probe:      probe,
	})
	t3 := cpuNow()
	if err != nil {
		return nil, st, err
	}
	if n.Shards() != shards {
		return nil, st, fmt.Errorf("network runs %d shards, want %d", n.Shards(), shards)
	}
	st = setupTimes{topology: t1 - t0, routeTable: t2 - t1, network: t3 - t2}
	return n, st, nil
}

// allVCs lets every packet use any of the router's virtual channels.
const allVCs = flit.VCMask(0xFF)

// median returns the middle value of xs (the mean of the middle two for
// an even count); xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(i)
	return xs[i] + frac*(xs[i+1]-xs[i])
}
