package router

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/route"
)

// compass lists the four inter-router ports.
var compass = []route.Dir{route.North, route.East, route.South, route.West}

// eastStep is the test deflection routers' dimension-order step: East
// toward every other tile.
func eastStep(tile, dst int) route.Dir {
	if dst == tile {
		return route.Local
	}
	return route.East
}

// deflectConfig is the default router configuration in ModeDeflect.
func deflectConfig(id int) Config {
	cfg := DefaultConfig(id)
	cfg.Mode = ModeDeflect
	return cfg
}

// wired returns a router built from cfg with an output and an input link
// on each compass port, credited to cfg.BufFlits as a network wires it; a
// deflection router steps East (eastStep).
func wired(tb testing.TB, cfg Config) *Router {
	tb.Helper()
	r, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if cfg.Mode == ModeDeflect {
		r.SetDeflectRoute(eastStep)
	}
	for _, d := range compass {
		out := link.New(link.Config{})
		out.From, out.Dir = cfg.ID, d
		r.SetOutLink(d, out, cfg.BufFlits)
		r.SetInLink(d, link.New(link.Config{}))
	}
	return r
}

// sectionBytes returns the payload r.SaveState writes, read back through
// a checkpoint container so it is exactly the bytes RestoreState decodes.
func sectionBytes(tb testing.TB, r *Router) []byte {
	tb.Helper()
	b := checkpoint.NewBuilder(0, 0)
	r.SaveState(b.Section("router"))
	f, err := checkpoint.Parse(b.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	d, err := f.Section("router")
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]byte, d.Remaining())
	for i := range out {
		out[i] = d.U8()
	}
	return out
}

// restore decodes payload into a fresh wired router built from cfg and
// returns it with the decoder's error.
func restore(tb testing.TB, cfg Config, payload []byte) (*Router, error) {
	tb.Helper()
	r := wired(tb, cfg)
	var pool flit.Pool
	d := checkpoint.NewDecoder(payload)
	r.RestoreState(d, &pool)
	return r, d.Err()
}

// packet returns the flits of a packet on VC vc whose route leaves the
// local input by the absolute code c.
func packet(id uint64, vc, flits int, c route.Code) []*flit.Flit {
	var w route.Word
	w, _ = w.Push(c)
	w, _ = w.Push(route.Extract)
	out := make([]*flit.Flit, flits)
	for i := range out {
		f := &flit.Flit{Type: flit.Body, VC: vc, Mask: flit.VCMask(0xFF), PacketID: id, Seq: i, TotalFlits: flits}
		switch {
		case flits == 1:
			f.Type = flit.HeadTail
		case i == 0:
			f.Type = flit.Head
		case i == flits-1:
			f.Type = flit.Tail
		}
		if i == 0 {
			f.Route = w
		}
		out[i] = f
	}
	return out
}

// liveRouter returns a wired router mid-run: packets buffered, routed,
// staged and holding downstream VCs and credits.
func liveRouter(tb testing.TB) *Router {
	tb.Helper()
	r := wired(tb, DefaultConfig(3))
	codes := []route.Code{route.Straight, route.Left, route.Right, route.Extract}
	for vc := 0; vc < 4; vc++ {
		for _, f := range packet(uint64(10+vc), vc, 3, codes[vc]) {
			r.AcceptFlit(f, route.Local)
		}
	}
	for now := int64(0); now < 3; now++ {
		r.RouteCompute(now)
		r.LinkArbitrate(now)
		r.SwitchArbitrate(now)
		for _, d := range compass {
			r.outputs[d].link.Deliver()
		}
	}
	return r
}

// liveDeflection returns a wired deflection router between cycles,
// as a checkpoint sees it: four compass arrivals bound elsewhere took
// every output, so the packet injected beside them still waits in the
// local register, and the ejected packet has been handed to the tile.
func liveDeflection(tb testing.TB) *Router {
	tb.Helper()
	r := wired(tb, deflectConfig(3))
	arrival := func(id uint64, dst int) *flit.Flit {
		return &flit.Flit{Type: flit.HeadTail, VC: int(id % 8), Dst: dst, Birth: int64(id), PacketID: id}
	}
	r.AcceptFlit(arrival(1, 3), route.North)
	r.LinkArbitrate(0)
	r.Eject()
	for i, d := range compass {
		r.AcceptFlit(arrival(uint64(10+i), 9), d)
	}
	r.AcceptFlit(arrival(20, 9), route.Local)
	r.LinkArbitrate(1)
	r.Eject()
	for _, d := range compass {
		r.outputs[d].link.Deliver()
	}
	return r
}

func TestRestoreRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		live func(testing.TB) *Router
	}{
		{"vc", DefaultConfig(3), liveRouter},
		{"deflect", deflectConfig(3), liveDeflection},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.live(t)
			if src.Occupancy() == 0 {
				t.Fatal("live router holds no flits; the round trip would be vacuous")
			}
			want := sectionBytes(t, src)
			r, err := restore(t, tc.cfg, want)
			if err != nil {
				t.Fatal(err)
			}
			if got := sectionBytes(t, r); string(got) != string(want) {
				t.Fatal("restored router saves different bytes")
			}
			if msg := r.checkMasks(); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}

// TestDeflectRestoreRejectsUnreachableState corrupts a saved deflection
// router between cycles, one case per state a live one never reaches, and
// requires the restore into a deflection router to fail naming the router
// and port. Each corrupted section still restores into the VC router,
// which reaches all of these states.
func TestDeflectRestoreRejectsUnreachableState(t *testing.T) {
	headTail := func(id uint64, vc int) *flit.Flit {
		return &flit.Flit{Type: flit.HeadTail, VC: vc, Dst: 9, PacketID: id}
	}
	for _, tc := range []struct {
		name    string
		corrupt func(r *Router)
		want    string
	}{
		{"two-flits-local", func(r *Router) {
			r.inputs[route.Local].vcs[1].pushBack(headTail(60, 1))
		}, "router 3: input L holds 2 flits"},
		{"two-flits-compass", func(r *Router) {
			r.inputs[route.East].vcs[0].pushBack(headTail(61, 0))
			r.inputs[route.East].vcs[2].pushBack(headTail(62, 2))
		}, "router 3: input E holds 2 flits"},
		{"compass-flit", func(r *Router) {
			r.inputs[route.West].vcs[4].pushBack(headTail(63, 4))
		}, "router 3: input W holds a flit between cycles"},
		{"multi-flit", func(r *Router) {
			r.inputs[route.Local].vcs[4].front().Type = flit.Head
		}, "router 3: input L holds a head flit"},
		{"routed-vc", func(r *Router) {
			r.inputs[route.South].vcs[1].routed = true
		}, "router 3: input S VC 1 is routed"},
		{"staged-flit", func(r *Router) {
			r.outputs[route.North].staging[route.Local] = headTail(65, 0)
		}, "router 3: output N holds a staged or bypassed flit"},
		{"bypassed-flit", func(r *Router) {
			r.outputs[route.East].bypass = append(r.outputs[route.East].bypass, headTail(66, 0))
		}, "router 3: output E holds a staged or bypassed flit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := liveDeflection(t)
			tc.corrupt(src)
			payload := sectionBytes(t, src)
			_, err := restore(t, deflectConfig(3), payload)
			if err == nil {
				t.Fatal("restore accepted state a live deflection router never reaches")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			if _, err := restore(t, DefaultConfig(3), payload); err != nil {
				t.Fatalf("the VC router refused the same state: %v", err)
			}
		})
	}
}

// TestRestoreRejectsUnreachableState corrupts one field of a saved router
// per case and requires the decoder to fail, naming the router, port and
// VC, instead of handing the next cycle state a live router never reaches.
func TestRestoreRejectsUnreachableState(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(r *Router)
		want    string
	}{
		{"overfull-vc", func(r *Router) {
			// BufFlits 4 gives each VC five slots; seven flits cannot come
			// from a live router. Appending past the slab-carved capacity
			// reallocates, so the neighbouring VCs stay intact.
			st := &r.inputs[route.East].vcs[2]
			for _, f := range packet(50, 2, 7, route.Straight) {
				st.pushBack(f)
			}
		}, "router 3: input E VC 2: holds 7 flits, more than its 5 slots"},
		{"out-port-200", func(r *Router) {
			r.inputs[route.North].vcs[1].outPort = 200
		}, "router 3: input N VC 1: output port 200 outside [0,5)"},
		{"out-vc-past-range", func(r *Router) {
			r.inputs[route.South].vcs[0].outVC = 8
		}, "router 3: input S VC 0: output VC 8 outside [-1,8)"},
		{"out-vc-below-unallocated", func(r *Router) {
			r.inputs[route.South].vcs[0].outVC = -2
		}, "router 3: input S VC 0: output VC -2 outside [-1,8)"},
		{"flit-on-wrong-vc", func(r *Router) {
			r.inputs[route.West].vcs[5].pushBack(packet(51, 6, 1, route.Straight)[0])
		}, "router 3: input W VC 5: holds a flit of VC 6"},
		{"unrouted-body-front", func(r *Router) {
			r.inputs[route.West].vcs[4].pushBack(packet(52, 4, 3, route.Straight)[1])
		}, "router 3: input W VC 4: unrouted with a body flit at its front"},
		{"vc-arbiter-pointer", func(r *Router) {
			r.inputs[route.Local].arb.next = 8
		}, "router 3: input L: VC arbiter pointer 8 outside [0,8)"},
		{"port-arbiter-pointer", func(r *Router) {
			r.outputs[route.East].arb.next = -1
		}, "router 3: output E: port arbiter pointer -1 outside [0,5)"},
		{"staged-flit-vc", func(r *Router) {
			f := packet(53, 0, 1, route.Straight)[0]
			f.VC = -1
			r.outputs[route.North].staging[route.Local] = f
		}, "router 3: output N: flit staged from input L on VC -1 outside [0,8)"},
		{"bypassed-flit-vc", func(r *Router) {
			f := packet(54, 0, 1, route.Straight)[0]
			f.VC = 9
			r.outputs[route.East].bypass = append(r.outputs[route.East].bypass, f)
		}, "router 3: output E: bypassed flit on VC 9 outside [0,8)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := liveRouter(t)
			tc.corrupt(src)
			_, err := restore(t, DefaultConfig(3), sectionBytes(t, src))
			if err == nil {
				t.Fatal("restore accepted state a live router never reaches")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
