package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/telemetry/sampler"
)

// TestCheckpointStalenessDegradesHealthz drives a served network with
// checkpointing configured: while snapshots land on schedule /healthz is
// 200, once the age exceeds twice the interval it flips to 503 with a
// "checkpoint" verdict attributing the staleness, and a fresh snapshot
// restores 200.
func TestCheckpointStalenessDegradesHealthz(t *testing.T) {
	n := newServedNet(t, 0.1, 1<<30, 3)
	n.NoteCheckpointInterval(100)
	col := AttachCollector(sampled(t, n, sampler.Config{Every: 64}), Config{})
	srv, err := StartWith(col, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	healthz := func() (int, healthzBody) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body healthzBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	// Fresh checkpoints: healthy.
	n.NoteCheckpoint(0)
	n.Run(129) // samples at 0, 64, 128; age 128 <= 200
	if code, body := healthz(); code != http.StatusOK {
		t.Fatalf("healthz = %d with checkpoint age %d, want 200", code, body.CheckpointAge)
	}

	// No further checkpoints: age crosses 2x interval and degrades.
	n.Run(200) // latest sample at cycle 320, age 320 > 200
	code, body := healthz()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d with checkpoint age %d, want 503", code, body.CheckpointAge)
	}
	if body.LastCheckpointCycle != 0 || body.CheckpointAge <= 200 {
		t.Fatalf("healthz reported last=%d age=%d, want last=0 age>200",
			body.LastCheckpointCycle, body.CheckpointAge)
	}
	found := false
	for _, v := range body.Verdicts {
		if v.Detector == "checkpoint" {
			found = true
			if v.Healthy {
				t.Fatal("checkpoint verdict reported healthy while stale")
			}
			if v.Detail == "" {
				t.Fatal("checkpoint verdict has no attribution detail")
			}
		}
	}
	if !found {
		t.Fatalf("no checkpoint verdict among %d verdicts", len(body.Verdicts))
	}

	// A fresh checkpoint clears the condition at the next sample.
	n.NoteCheckpoint(n.Kernel().Now())
	n.Run(64)
	if code, body := healthz(); code != http.StatusOK {
		t.Fatalf("healthz = %d after a fresh checkpoint (age %d), want 200", code, body.CheckpointAge)
	}
}

// TestSnapshotReportsCheckpointAge checks the /snapshot JSON carries the
// checkpoint fields and that an unconfigured network never reports stale.
func TestSnapshotReportsCheckpointAge(t *testing.T) {
	n := newServedNet(t, 0.1, 1<<30, 4)
	col := AttachCollector(sampled(t, n, sampler.Config{Every: 64}), Config{})
	n.Run(300)
	snap := col.Latest()
	if snap == nil {
		t.Fatal("no snapshot published")
	}
	if snap.LastCheckpointCycle != -1 {
		t.Fatalf("LastCheckpointCycle = %d without checkpointing, want -1", snap.LastCheckpointCycle)
	}
	if snap.CheckpointStale {
		t.Fatal("snapshot stale with checkpointing off")
	}
	n.NoteCheckpointInterval(128)
	n.NoteCheckpoint(256)
	n.Run(64)
	snap = col.Latest()
	if snap.LastCheckpointCycle != 256 {
		t.Fatalf("LastCheckpointCycle = %d, want 256", snap.LastCheckpointCycle)
	}
	if want := snap.Cycle - 256; snap.CheckpointAge != want {
		t.Fatalf("CheckpointAge = %d at cycle %d, want %d", snap.CheckpointAge, snap.Cycle, want)
	}
	if snap.CheckpointStale {
		t.Fatalf("stale with age %d <= 2x interval 128", snap.CheckpointAge)
	}
}
