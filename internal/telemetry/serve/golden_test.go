package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/route"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/sampler"
)

// These are the golden detector scenarios: deliberately broken networks
// where a detector must fire with correct attribution, and a healthy
// network where every detector must stay silent.

func deadlockedCollector(t *testing.T) (*Collector, *health.Monitor, func() *http.Response, func()) {
	t.Helper()
	// Finite traffic, then wedge every input controller of tile 5 before
	// the flits drain: whatever is buffered there (and whatever waits on
	// its credits upstream) can never move, and once the rest of the
	// network empties, ejections cease with occupancy pinned above zero.
	n := newServedNet(t, 0.3, 300, 5)
	smp := sampled(t, n, sampler.Config{
		Every:  64,
		Health: health.Config{DeadlockWindow: 256},
	})
	col := AttachCollector(smp, Config{})
	srv, err := StartWith(col, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.Run(100)
	for _, d := range []route.Dir{route.North, route.East, route.South, route.West} {
		n.SetPortStall(5, d, true)
	}
	n.Run(3000)
	if n.Occupancy() == 0 {
		t.Fatal("network drained despite the stalled router; scenario is vacuous")
	}
	get := func() *http.Response {
		resp, err := http.Get("http://" + srv.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	return col, smp.Monitor(), get, func() { srv.Close() }
}

func TestGoldenDeadlockFiresWithAttribution(t *testing.T) {
	col, mon, _, stop := deadlockedCollector(t)
	defer stop()
	if mon.Healthy() {
		t.Fatal("monitor healthy despite a wedged router and frozen occupancy")
	}
	var dl health.Verdict
	for _, v := range mon.Verdicts() {
		if v.Detector == health.DetectorDeadlock {
			dl = v
		}
	}
	if dl.Healthy {
		t.Fatal("deadlock detector did not fire")
	}
	if !strings.Contains(dl.Detail, "t5:") {
		t.Fatalf("deadlock attribution does not name tile 5: %q", dl.Detail)
	}
	if !strings.Contains(dl.Detail, "stalled port") {
		t.Fatalf("deadlock attribution does not name the stalled port fault: %q", dl.Detail)
	}
	snap := col.Latest()
	if snap == nil || snap.Healthy {
		t.Fatal("published snapshot does not reflect the deadlock")
	}
}

func TestGoldenDeadlockHealthzReturns503(t *testing.T) {
	_, _, get, stop := deadlockedCollector(t)
	defer stop()
	resp := get()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz on a deadlocked network: %d, want 503", resp.StatusCode)
	}
	var body struct {
		Status   string `json:"status"`
		Verdicts []struct {
			Detector string `json:"detector"`
			Healthy  bool   `json:"healthy"`
			Detail   string `json:"detail"`
		} `json:"verdicts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "unhealthy" {
		t.Fatalf("/healthz status %q, want unhealthy", body.Status)
	}
	found := false
	for _, v := range body.Verdicts {
		if v.Detector == "deadlock" && !v.Healthy && strings.Contains(v.Detail, "t5:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("/healthz verdicts lack the attributed deadlock: %+v", body.Verdicts)
	}
}

func TestGoldenStarvationFiresWhileOthersProgress(t *testing.T) {
	// Traffic keeps flowing, but tile 5's input controllers stall: its
	// buffered flits age past the watermark while the rest of the network
	// keeps delivering, so starvation (not deadlock) is the right call.
	n := newServedNet(t, 0.25, 0, 6)
	smp := sampled(t, n, sampler.Config{
		Every: 64,
		// The deadlock window is kept far out so any misattribution of
		// this scenario as a deadlock would fail the test below.
		Health: health.Config{StarveAge: 256, DeadlockWindow: 1 << 30},
	})
	AttachCollector(smp, Config{})
	n.Run(200)
	if n.Router(5).Occupancy() == 0 {
		t.Fatal("router 5 empty at stall time; scenario is vacuous")
	}
	for _, d := range []route.Dir{route.North, route.East, route.South, route.West} {
		n.SetPortStall(5, d, true)
	}
	n.Run(1500)

	mon := smp.Monitor()
	var st, dl health.Verdict
	for _, v := range mon.Verdicts() {
		switch v.Detector {
		case health.DetectorStarvation:
			st = v
		case health.DetectorDeadlock:
			dl = v
		}
	}
	if st.Healthy {
		t.Fatal("starvation detector did not fire")
	}
	if !strings.Contains(st.Detail, "t5:") {
		t.Fatalf("starvation attribution does not name tile 5: %q", st.Detail)
	}
	if !dl.Healthy {
		t.Fatalf("deadlock fired on a progressing network: %q", dl.Detail)
	}
}

func TestGoldenCongestionCollapsePastSaturation(t *testing.T) {
	// Offered load never changes, but capacity is progressively removed
	// from the center of the die: delivered throughput falls window after
	// window while the generators keep offering — the post-saturation
	// collapse signature.
	n := newServedNet(t, 0.5, 0, 7)
	smp := sampled(t, n, sampler.Config{
		Every: 256,
		Health: health.Config{
			CollapseWindows:   2,
			CollapseTolerance: 0.05,
			// Keep the other detectors out of the way; this scenario
			// wedges routers, which they would (correctly) also flag.
			DeadlockWindow: 1 << 30,
			StarveAge:      1 << 30,
		},
	})
	AttachCollector(smp, Config{})
	dirs := []route.Dir{route.North, route.East, route.South, route.West}
	stall := func(tile int) {
		for _, d := range dirs {
			n.SetPortStall(tile, d, true)
		}
	}
	n.Run(512) // healthy baseline windows
	stall(5)
	n.Run(256) // sample at 512 still covers the pre-stall window
	stall(6)
	n.Run(256) // sample at 768: first post-stall window, fall #1
	n.Run(256) // sample at 1024: both stalls biting, fall #2 -> fire

	var cg health.Verdict
	for _, v := range smp.Monitor().Verdicts() {
		if v.Detector == health.DetectorCongestion {
			cg = v
		}
	}
	if cg.Healthy {
		t.Fatal("congestion-collapse detector did not fire")
	}
	if !strings.Contains(cg.Detail, "delivered rate fell") {
		t.Fatalf("collapse detail missing the rate evidence: %q", cg.Detail)
	}
	if !strings.Contains(cg.Detail, "hottest links") {
		t.Fatalf("collapse detail does not attribute hot links: %q", cg.Detail)
	}
}

func TestGoldenHealthyRunStaysSilent(t *testing.T) {
	// A comfortable load on a fault-free network: every detector must
	// hold healthy across the whole run.
	n := newServedNet(t, 0.2, 0, 8)
	smp := sampled(t, n, sampler.Config{Every: 64})
	col := AttachCollector(smp, Config{})
	for i := 0; i < 8; i++ {
		n.Run(512)
		if !smp.Monitor().Healthy() {
			t.Fatalf("detector fired on a healthy run at cycle ~%d: %+v",
				(i+1)*512, smp.Monitor().Verdicts())
		}
	}
	snap := col.Latest()
	if snap == nil || !snap.Healthy {
		t.Fatalf("healthy run published unhealthy snapshot: %+v", snap)
	}
	for _, v := range snap.Health {
		if !v.Healthy || v.Detail != "" {
			t.Fatalf("healthy run carries a verdict detail: %+v", v)
		}
	}
	if snap.OverUnityLinks != 0 {
		t.Fatalf("healthy run reports %d over-unity links", snap.OverUnityLinks)
	}
}
