package network

import (
	"testing"

	"repro/internal/flit"
)

// tailFlit builds the tail stamp packetDone reads: birth/inject cycles and
// the class/flow labels.
func tailFlit(birth, inject int64, class, flow int) *flit.Flit {
	return &flit.Flit{Birth: birth, Inject: inject, Class: class, Flow: flow}
}

func TestRecorderPerClassHistograms(t *testing.T) {
	r := NewRecorder(0)
	r.packetDone(tailFlit(0, 1, 0, 0), 1, 10) // class 0, latency 10
	r.packetDone(tailFlit(0, 1, 0, 0), 1, 20) // class 0, latency 20
	r.packetDone(tailFlit(5, 6, 2, 0), 1, 15) // class 2, latency 10

	h0 := r.ClassLatency(0)
	if h0 == nil || h0.Count() != 2 {
		t.Fatalf("class 0 histogram count = %v, want 2", h0)
	}
	if h0.Mean() != 15 {
		t.Errorf("class 0 mean latency = %v, want 15", h0.Mean())
	}
	h2 := r.ClassLatency(2)
	if h2 == nil || h2.Count() != 1 || h2.Max() != 10 {
		t.Fatalf("class 2 histogram = %v, want one 10-cycle sample", h2)
	}
	if r.ClassLatency(7) != nil {
		t.Error("unused class should have a nil histogram")
	}
}

func TestRecorderWarmupExcludesClassSamples(t *testing.T) {
	r := NewRecorder(100)
	r.packetDone(tailFlit(50, 51, 1, 0), 2, 90) // born before warmup
	if r.DeliveredPackets != 1 || r.DeliveredFlits != 2 {
		t.Fatalf("delivery counters must include warmup packets: %d pkts %d flits",
			r.DeliveredPackets, r.DeliveredFlits)
	}
	if r.ClassLatency(1) != nil {
		t.Error("warmup-born packet must not contribute latency samples")
	}
	r.packetDone(tailFlit(120, 121, 1, 0), 2, 140)
	if h := r.ClassLatency(1); h == nil || h.Count() != 1 {
		t.Fatalf("post-warmup packet missing from class histogram: %v", h)
	}
}

func TestRecorderPerFlowJitterAndInterArrival(t *testing.T) {
	r := NewRecorder(0)
	// Flow 3 delivers at cycles 10, 20, 31 with latencies 8, 8, 11.
	r.packetDone(tailFlit(2, 3, 0, 3), 1, 10)
	r.packetDone(tailFlit(12, 13, 0, 3), 1, 20)
	r.packetDone(tailFlit(20, 21, 0, 3), 1, 31)

	if h := r.FlowLatency(3); h == nil || h.Count() != 3 {
		t.Fatalf("flow latency histogram = %v, want 3 samples", h)
	}
	if got := r.FlowJitter(3); got != 3 {
		t.Errorf("FlowJitter = %d, want 3 (11-8 peak-to-peak)", got)
	}
	ia := r.FlowInterArrival(3)
	if ia == nil || ia.Count() != 2 {
		t.Fatalf("inter-arrival histogram = %v, want 2 gaps", ia)
	}
	if ia.Quantile(0) != 10 || ia.Max() != 11 {
		t.Errorf("inter-arrival gaps min=%d max=%d, want 10 and 11", ia.Quantile(0), ia.Max())
	}
}

func TestRecorderFlowZeroIsUntracked(t *testing.T) {
	r := NewRecorder(0)
	r.packetDone(tailFlit(0, 1, 0, 0), 1, 5)
	if r.FlowLatency(0) != nil || r.FlowInterArrival(0) != nil {
		t.Error("flow 0 (dynamic traffic) must not be tracked per-flow")
	}
	if r.FlowJitter(0) != 0 {
		t.Error("flow 0 jitter should be 0")
	}
	if r.FlowJitter(42) != 0 {
		t.Error("unknown flow jitter should be 0")
	}
}

func TestRecorderJitterSingleSample(t *testing.T) {
	r := NewRecorder(0)
	r.packetDone(tailFlit(0, 1, 0, 9), 1, 7)
	if got := r.FlowJitter(9); got != 0 {
		t.Errorf("single-delivery flow jitter = %d, want 0", got)
	}
	if ia := r.FlowInterArrival(9); ia == nil || ia.Count() != 0 {
		t.Errorf("single delivery has no inter-arrival gap: %v", ia)
	}
}

func TestRecorderMeasurementWindow(t *testing.T) {
	r := NewRecorder(100)
	r.MeasureUntil = 200
	r.packetDone(tailFlit(10, 11, 0, 0), 3, 50)    // before window
	r.packetDone(tailFlit(90, 91, 0, 0), 3, 150)   // inside (delivery cycle governs)
	r.packetDone(tailFlit(150, 151, 0, 0), 3, 250) // after window
	if r.WindowFlits != 3 {
		t.Errorf("WindowFlits = %d, want 3 (only the in-window delivery)", r.WindowFlits)
	}
}
