package network

import (
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/telemetry/health"
)

// AppendWaitingVCs appends, in deterministic tile/port/VC order, every
// input virtual channel in the network whose head-of-line flit has waited
// at least minAge cycles (plus fault-wedged VCs regardless of age), in
// the health monitor's Sample shape. Routers holding no flits are skipped
// via the O(1) occupancy count, so a quiescent network costs one integer
// compare per tile.
func (n *Network) AppendWaitingVCs(now, minAge int64, out []health.VCWait) []health.VCWait {
	var scratch []router.WaitingVC
	for _, r := range n.routers {
		if r.Occupancy() == 0 {
			continue
		}
		scratch = r.AppendWaiting(now, minAge, scratch[:0])
		for _, w := range scratch {
			hw := health.VCWait{
				Tile:     r.ID(),
				Port:     w.Port,
				VC:       w.VC,
				Age:      w.Age,
				Routed:   w.Routed,
				OutPort:  w.OutPort,
				OutVC:    w.OutVC,
				DownTile: -1,
				Stuck:    w.Stuck,
				Stalled:  w.Stalled,
			}
			if w.Routed && w.OutPort != route.Local {
				if next, ok := n.topo.Neighbor(r.ID(), w.OutPort); ok {
					hw.DownTile = next
				}
			}
			out = append(out, hw)
		}
	}
	return out
}
