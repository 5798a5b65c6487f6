package serve

import (
	"bufio"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry/sampler"
)

// The SSE hardening contract: a stalled or slow /events client can never
// stall the simulation. The publisher runs inside a serial simulation
// phase, so its sends must never block — frames beyond the bounded
// per-client queue are dropped and counted, and the count is reported on
// the stream once the client catches up.

// TestStalledSubscriberNeverBlocksPublisher subscribes and never drains:
// the simulation must keep running at full speed, the queue must cap at
// its bound, and every frame beyond it must be counted as dropped.
func TestStalledSubscriberNeverBlocksPublisher(t *testing.T) {
	n := newServedNet(t, 0.3, 0, 9)
	col := AttachCollector(sampled(t, n, sampler.Config{Every: 64}), Config{})
	sub := col.Subscribe()
	defer col.Unsubscribe(sub)

	// 37 samples land on a queue of 32; if any send blocked, this Run
	// would deadlock the test rather than return.
	const samples = subQueue + 5
	done := make(chan struct{})
	go func() {
		n.Run(64 * samples)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("simulation stalled behind a dead SSE subscriber")
	}

	if got := len(sub.ch); got != subQueue {
		t.Fatalf("queue holds %d frames, want the full bound %d", got, subQueue)
	}
	if got := sub.Dropped(); got != 5 {
		t.Fatalf("Dropped() = %d, want 5 (samples %d - queue %d)", got, samples, subQueue)
	}

	// A fresh subscriber still gets frames — one client's stall is not
	// another's problem.
	fresh := col.Subscribe()
	defer col.Unsubscribe(fresh)
	n.Run(64)
	select {
	case frame := <-fresh.C():
		if !strings.HasPrefix(string(frame), "event: sample\n") {
			t.Fatalf("unexpected frame %q", frame)
		}
	default:
		t.Fatal("fresh subscriber got no frame while another was stalled")
	}
	if fresh.Dropped() != 0 {
		t.Fatalf("fresh subscriber counted %d drops", fresh.Dropped())
	}
}

// TestEventsHeartbeat shrinks the keep-alive interval and checks an idle
// stream (no samples published at all) still carries periodic comments, so
// proxies keep the connection and clients detect half-open TCP.
func TestEventsHeartbeat(t *testing.T) {
	old := sseHeartbeat
	sseHeartbeat = 50 * time.Millisecond
	defer func() { sseHeartbeat = old }()

	n := newServedNet(t, 0.3, 0, 10)
	srv, err := Start(sampled(t, n, sampler.Config{Every: 64}), Config{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", "http://"+srv.Addr()+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The network never runs, so nothing but the prelude and heartbeats
	// can appear on the stream.
	sc := bufio.NewScanner(resp.Body)
	beats := 0
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event:") || strings.HasPrefix(line, "data:") {
			t.Fatalf("idle stream carried a frame: %q", line)
		}
		if line == ": heartbeat" {
			beats++
			if beats >= 2 {
				return
			}
		}
	}
	t.Fatalf("stream ended after %d heartbeat(s): %v", beats, sc.Err())
}

// TestEventsReportsDroppedFrames drives the handler's catch-up path: a
// client that stalls long enough for the handler's own queue to overflow
// sees a comment reporting how many frames it missed.
func TestEventsReportsDroppedFrames(t *testing.T) {
	n := newServedNet(t, 0.3, 0, 12)
	col := AttachCollector(sampled(t, n, sampler.Config{Every: 64}), Config{})
	sub := col.Subscribe()
	defer col.Unsubscribe(sub)

	// Overflow the queue while nobody reads, then drain like the handler
	// does: the Dropped() delta is what handleEvents renders as the
	// ": N frame(s) dropped while stalled" comment.
	n.Run(64 * (subQueue + 9))
	if d := sub.Dropped(); d != 9 {
		t.Fatalf("Dropped() = %d after overflow, want 9", d)
	}
	drained := 0
	for {
		select {
		case <-sub.C():
			drained++
			continue
		default:
		}
		break
	}
	if drained != subQueue {
		t.Fatalf("drained %d frames, want %d", drained, subQueue)
	}
	// Once caught up, new frames flow again and the count is stable.
	n.Run(64)
	if d := sub.Dropped(); d != 9 {
		t.Fatalf("Dropped() moved to %d after catching up", d)
	}
	select {
	case <-sub.C():
	default:
		t.Fatal("no frame after the subscriber caught up")
	}
}
