package router

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/flit"
	"repro/internal/route"
)

// FuzzRouterRestore decodes fuzzed section bytes into a built, wired
// router, once in the VC router's mode and once in ModeDeflect. Restore
// must either fail with a decoder error or leave a router a live one
// could be: packed masks coherent with the state they mirror, the
// incremental occupancy equal to a recount, and one cycle of route
// computation, link arbitration and switch arbitration run without a
// panic, after which the same invariants still hold. Seeds are a real
// mid-run payload of each mode and the two corruptions that used to pass
// restore: a VC holding more flits than its slots, and an output port of
// 200.
func FuzzRouterRestore(f *testing.F) {
	live := liveRouter(f)
	f.Add(sectionBytes(f, live))
	f.Add(sectionBytes(f, liveDeflection(f)))
	overfull := liveRouter(f)
	for _, fl := range packet(50, 2, 7, route.Straight) {
		overfull.inputs[route.East].vcs[2].pushBack(fl)
	}
	f.Add(sectionBytes(f, overfull))
	badPort := liveRouter(f)
	badPort.inputs[route.North].vcs[1].outPort = 200
	f.Add(sectionBytes(f, badPort))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range []Config{DefaultConfig(3), deflectConfig(3)} {
			r := wired(t, cfg)
			var pool flit.Pool
			d := checkpoint.NewDecoder(data)
			r.RestoreState(d, &pool)
			if d.Err() != nil {
				continue
			}
			check := func(when string) {
				if msg := r.checkMasks(); msg != "" {
					t.Fatalf("mode %d %s: %s", cfg.Mode, when, msg)
				}
				if got, want := r.OccupancyRecount(), r.Occupancy(); got != want {
					t.Fatalf("mode %d %s: occupancy recount %d, incremental count %d", cfg.Mode, when, got, want)
				}
			}
			check("after restore")
			const now = 1
			r.RouteCompute(now)
			r.LinkArbitrate(now)
			r.SwitchArbitrate(now)
			check("after one cycle")
		}
	})
}
