package router

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/route"
	"repro/internal/topology"
)

// refSwitchArbitrate is the reference switch arbitration: every
// candidate VC's eligibility goes into a request vector, the vector is
// narrowed to the priority VCs when any of them is eligible, and the
// port's round-robin arbiter grants the first request at or after its
// pointer. It returns each input port's winner (-1 for none) and reports
// whether the priority narrowing dropped an eligible request.
func refSwitchArbitrate(r *Router, now int64) (wins [NumPorts]int, narrowed bool) {
	if r.cfg.ReservedVC >= 0 {
		r.moveReserved(now)
	}
	for pi := range r.inputs {
		wins[pi] = -1
		ic := &r.inputs[pi]
		if r.stalledIn[pi] {
			continue
		}
		cand := ic.occMask & ic.routedMask &^ ic.stuckMask &^ r.inReservedMask
		var req uint32
		for m := cand; m != 0; m &= m - 1 {
			v := bits.TrailingZeros32(m)
			if r.eligible(pi, &ic.vcs[v], now) {
				req |= 1 << uint(v)
			}
		}
		if p := req & r.prioMask; p != 0 {
			narrowed = narrowed || p != req
			req = p
		}
		if win := ic.arb.GrantMask(req); win >= 0 {
			wins[pi] = win
			r.moveFlit(pi, win, now)
		}
	}
	return wins, narrowed
}

// grantLink is one channel of a grantNet.
type grantLink struct {
	l        *link.Link
	from, to int
	dir      route.Dir
}

// grantNet is a small die for the switch-grant equivalence test: routers
// on a mesh or a dateline torus, wired and clocked in the network's phase
// order, with uniform random packets injected one flit per cycle per tile.
// refs[i] is a second router of the same configuration that receives a
// copy of routers[i] before each switch phase.
type grantNet struct {
	topo    topology.Topology
	routers []Router
	refs    []*Router
	links   []grantLink
	queue   [][]*flit.Flit
	classes [2][]int // injection VCs of the plain and the priority class
	pid     uint64
}

func newGrantNet(t *testing.T, cfg Config, topo topology.Topology) *grantNet {
	t.Helper()
	tiles := topo.NumTiles()
	rs, err := NewAll(cfg, tiles)
	if err != nil {
		t.Fatal(err)
	}
	g := &grantNet{topo: topo, routers: rs, queue: make([][]*flit.Flit, tiles)}
	for i := range rs {
		c := cfg
		c.ID = i
		ref, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		g.refs = append(g.refs, ref)
	}
	kx, ky := topo.Radix()
	for _, tl := range topology.Links(topo) {
		l := link.New(link.Config{Elastic: cfg.ElasticLinks})
		l.From, l.Dir = tl.From, tl.Dir
		rs[tl.From].SetOutLink(tl.Dir, l, cfg.BufFlits)
		rs[tl.To].SetInLink(tl.Dir.Opposite(), l)
		if cfg.DatelineVCs {
			x, y := topology.Coord(topo, tl.From)
			dl := (tl.Dir == route.East && x == kx-1) || (tl.Dir == route.West && x == 0) ||
				(tl.Dir == route.North && y == ky-1) || (tl.Dir == route.South && y == 0)
			rs[tl.From].SetDateline(tl.Dir, dl)
			g.refs[tl.From].SetDateline(tl.Dir, dl)
		}
		g.links = append(g.links, grantLink{l: l, from: tl.From, to: tl.To, dir: tl.Dir})
	}
	r := &rs[0]
	for v := 0; v < r.vcPairs(); v++ {
		if !r.reservedPair(v) {
			class := 0
			if r.isPriority(v) {
				class = 1
			}
			g.classes[class] = append(g.classes[class], v)
		}
	}
	return g
}

// offer queues a new packet at tile src toward a random other tile, on a
// random injection VC, with a VC mask drawn from that VC's class.
func (g *grantNet) offer(t *testing.T, rng *rand.Rand, src, maxFlits int) {
	dst := rng.Intn(g.topo.NumTiles() - 1)
	if dst >= src {
		dst++
	}
	w, err := route.Compute(g.topo, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	class := g.classes[0]
	if len(class) == 0 || (len(g.classes[1]) > 0 && rng.Intn(3) == 0) {
		class = g.classes[1]
	}
	vc := class[rng.Intn(len(class))]
	mask := flit.MaskFor(vc)
	for _, v := range class {
		if rng.Intn(2) == 0 {
			mask |= flit.MaskFor(v)
		}
	}
	g.pid++
	n := 1 + rng.Intn(maxFlits)
	for i := 0; i < n; i++ {
		f := &flit.Flit{Type: flit.Body, VC: vc, Mask: mask, PacketID: g.pid, Seq: i, TotalFlits: n, Src: src, Dst: dst}
		switch {
		case n == 1:
			f.Type = flit.HeadTail
		case i == 0:
			f.Type = flit.Head
		case i == n-1:
			f.Type = flit.Tail
		}
		if i == 0 {
			f.Route = w
		}
		g.queue[src] = append(g.queue[src], f)
	}
}

// switchChecked runs router i's switch arbitration, and the reference on
// a copy of it made through the router's checkpoint, and fails unless
// every input port moved the same VC, every arbiter pointer agrees and
// the two saved states are identical. It counts the grants and the ports
// that had more than one eligible candidate.
func (g *grantNet) switchChecked(t *testing.T, i int, now int64, st *grantStats) {
	t.Helper()
	r, ref := &g.routers[i], g.refs[i]
	f, err := checkpoint.Parse(savedState(r))
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Section("router")
	if err != nil {
		t.Fatal(err)
	}
	if ref.RestoreState(d, nil); d.Err() != nil {
		t.Fatalf("router %d: copy: %v", i, d.Err())
	}
	for pi := range ref.inputs {
		if ref.stalledIn[pi] {
			continue
		}
		ic := &ref.inputs[pi]
		eligible := 0
		for m := ic.occMask & ic.routedMask &^ ic.stuckMask &^ ref.inReservedMask; m != 0; m &= m - 1 {
			if ref.eligible(pi, &ic.vcs[bits.TrailingZeros32(m)], now) {
				eligible++
			}
		}
		if eligible > 1 {
			st.contested++
		}
	}
	want, narrowed := refSwitchArbitrate(ref, now)
	if narrowed {
		st.narrowed++
	}
	r.SwitchArbitrate(now)
	for pi := range r.inputs {
		got := -1
		for v := range r.inputs[pi].vcs {
			if v != r.cfg.ReservedVC && r.inputs[pi].vcs[v].lastDeq == now {
				got = v
			}
		}
		if got != want[pi] {
			t.Fatalf("cycle %d router %d input %v: moved VC %d, reference moved %d", now, i, route.Dir(pi), got, want[pi])
		}
		if got >= 0 {
			st.grants++
		}
		if a, b := r.inputs[pi].arb.next, ref.inputs[pi].arb.next; a != b {
			t.Fatalf("cycle %d router %d input %v: arbiter pointer %d, reference %d", now, i, route.Dir(pi), a, b)
		}
	}
	if !bytes.Equal(savedState(r), savedState(ref)) {
		t.Fatalf("cycle %d router %d: state differs from the reference's after switch arbitration", now, i)
	}
}

// savedState returns a checkpoint image holding r's saved state.
func savedState(r *Router) []byte {
	b := checkpoint.NewBuilder(0, 0)
	r.SaveState(b.Section("router"))
	return b.Bytes()
}

// grantStats counts what the equivalence test exercised.
type grantStats struct {
	grants, contested, narrowed, faults int
}

// cycle clocks the die once in the network's phase order: link delivery,
// route computation, link arbitration, switch arbitration (checked
// against the reference), ejection, injection and the fault sweep.
func (g *grantNet) cycle(t *testing.T, now int64, st *grantStats) {
	t.Helper()
	for _, gl := range g.links {
		to, in := &g.routers[gl.to], gl.dir.Opposite()
		if gl.l.EntryAlwaysFree() {
			f, vc, credited := gl.l.Deliver()
			if credited {
				g.routers[gl.from].HandleCredit(gl.dir, vc)
			}
			if f != nil {
				to.AcceptFlit(f, in)
			}
			continue
		}
		if f := gl.l.DeliverElastic(func(f *flit.Flit) bool { return to.CanAccept(in, f.VC) }); f != nil {
			to.AcceptFlit(f, in)
		}
	}
	for i := range g.routers {
		g.routers[i].RouteCompute(now)
		g.routers[i].LinkArbitrate(now)
	}
	for i := range g.routers {
		if g.routers[i].Occupancy() > 0 {
			g.switchChecked(t, i, now, st)
		}
	}
	for i := range g.routers {
		r := &g.routers[i]
		r.Eject()
		if q := g.queue[i]; len(q) > 0 && r.CanInject(q[0].VC) {
			r.AcceptFlit(q[0], route.Local)
			g.queue[i] = q[1:]
		}
		r.FaultSweep(now)
	}
}

// TestSwitchGrantMatchesRequestVector holds switch arbitration, which
// checks eligibility only up to the round-robin winner, to the request-
// vector algorithm of refSwitchArbitrate. On random small dies and
// traffic, before every switch phase each loaded router is copied into a
// reference router; both arbitrate, and every input port must move the
// same VC, every arbiter pointer must agree, and the two routers' saved
// states must be identical afterwards. The dies vary the VC count and
// depth, priority VCs, the reserved VC, NonSpeculative and CutThrough,
// and cover plain and elastic meshes, dateline tori, and faults: stalled
// ports, stuck VCs and a dead output.
func TestSwitchGrantMatchesRequestVector(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var st grantStats
	for trial := 0; trial < 24; trial++ {
		kind := trial % 4 // mesh, elastic mesh, dateline torus, faulted
		torus := kind == 2 || (kind == 3 && rng.Intn(2) == 0)
		cfg := DefaultConfig(0)
		cfg.NumVCs = []int{2, 4, 8}[rng.Intn(3)]
		cfg.BufFlits = 1 + rng.Intn(4)
		cfg.DatelineVCs = torus
		cfg.ElasticLinks = kind == 1
		cfg.NonSpeculative = rng.Intn(3) == 0
		cfg.CutThrough = rng.Intn(3) == 0
		pairs := cfg.NumVCs
		if torus {
			pairs /= 2
		}
		if pairs > 1 && rng.Intn(3) == 0 {
			cfg.ReservedVC = rng.Intn(cfg.NumVCs)
		}
		if rng.Intn(4) != 0 {
			cfg.PriorityVCs = flit.VCMask(1 + rng.Intn(1<<pairs-1))
		}
		k := 3 + rng.Intn(2)
		var topo topology.Topology
		var err error
		if torus {
			topo, err = topology.NewFoldedTorus(k, k)
		} else {
			topo, err = topology.NewMesh(k, k)
		}
		if err != nil {
			t.Fatal(err)
		}
		g := newGrantNet(t, cfg, topo)
		maxFlits := 4
		if cfg.CutThrough {
			maxFlits = min(maxFlits, cfg.BufFlits)
		}
		rate := 0.1 + 0.4*rng.Float64()
		killAt := int64(-1)
		if kind == 3 {
			killAt = int64(50 + rng.Intn(150))
		}
		for now := int64(0); now < 250; now++ {
			for tile := range g.queue {
				if len(g.queue[tile]) < 16 && rng.Float64() < rate {
					g.offer(t, rng, tile, maxFlits)
				}
			}
			if kind == 3 {
				g.injectFaults(rng, now, killAt, &st)
			}
			g.cycle(t, now, &st)
		}
	}
	t.Logf("%d grants, %d contested ports, %d priority narrowings, %d faults", st.grants, st.contested, st.narrowed, st.faults)
	if st.grants == 0 || st.contested == 0 || st.narrowed == 0 || st.faults == 0 {
		t.Fatalf("vacuous run: %+v", st)
	}
}

// injectFaults toggles a random input port's stall and a random input
// VC's wedge now and then, and at cycle killAt kills a random link the
// way the network's watchdog does: fence the wire, kill the sender's
// output and abandon the receiver's input.
func (g *grantNet) injectFaults(rng *rand.Rand, now, killAt int64, st *grantStats) {
	r := &g.routers[rng.Intn(len(g.routers))]
	d := route.Dir(rng.Intn(NumPorts))
	switch rng.Intn(40) {
	case 0:
		r.SetPortStall(d, !r.stalledIn[d])
		st.faults++
	case 1:
		vc := rng.Intn(r.cfg.NumVCs)
		r.SetVCStuck(d, vc, !r.vcIsStuck(int(d), vc))
		st.faults++
	}
	if now == killAt {
		gl := g.links[rng.Intn(len(g.links))]
		gl.l.SetDown(true)
		g.routers[gl.from].KillOutput(gl.dir)
		g.routers[gl.to].AbandonInput(gl.dir.Opposite(), now)
		st.faults++
	}
}
