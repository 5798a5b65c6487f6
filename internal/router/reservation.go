package router

import "fmt"

// ResTable is the cyclic reservation register of one output port (§2.6).
// Slot (cycle mod Period) may be reserved for one pre-scheduled flow; a
// reserved slot carries that flow's flit through the link bypass without
// arbitration. Unreserved slots (and, when WorkConserving is set, reserved
// slots with no waiting reserved flit) are arbitrated among dynamic
// traffic. NewAll builds one per output port, its slots carved from a
// slab.
type ResTable struct {
	period int
	flows  []int // flow id per slot; 0 = unreserved
	anyRes bool  // cached Reserved(), for the link-arbitration fast path
	// WorkConserving lets dynamic traffic claim an unclaimed reserved
	// slot. The paper's strict reading leaves such slots idle ("dynamic
	// traffic arbitrates for the cycles on each link that are not
	// pre-reserved"); work conservation is the ablation.
	WorkConserving bool
}

// Period reports the table length.
func (t *ResTable) Period() int { return t.period }

// Reserve books slot (phase mod period) for a flow (flow ids are positive).
// It fails if the slot is already taken by a different flow.
func (t *ResTable) Reserve(phase int, flow int) error {
	if flow <= 0 {
		return fmt.Errorf("router: flow id must be positive, got %d", flow)
	}
	s := ((phase % t.period) + t.period) % t.period
	if t.flows[s] != 0 && t.flows[s] != flow {
		return fmt.Errorf("router: slot %d already reserved for flow %d", s, t.flows[s])
	}
	t.flows[s] = flow
	t.anyRes = true
	return nil
}

// Reset releases every reservation, keeping the period and the
// work-conservation policy. Flow schedules are per-run state: a pooled
// router starts its next run with an empty table and the new run's
// ReserveFlow calls rebook it.
func (t *ResTable) Reset() {
	for i := range t.flows {
		t.flows[i] = 0
	}
	t.anyRes = false
}

// FlowAt reports the flow holding the slot for the given cycle (0 if none).
func (t *ResTable) FlowAt(now int64) int {
	return t.flows[int(((now%int64(t.period))+int64(t.period))%int64(t.period))]
}

// Reserved reports whether any slot is reserved.
func (t *ResTable) Reserved() bool {
	for _, f := range t.flows {
		if f != 0 {
			return true
		}
	}
	return false
}

// Utilization reports the fraction of slots reserved.
func (t *ResTable) Utilization() float64 {
	n := 0
	for _, f := range t.flows {
		if f != 0 {
			n++
		}
	}
	return float64(n) / float64(t.period)
}
