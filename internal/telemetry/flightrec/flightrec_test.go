package flightrec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/route"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/sampler"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// newRecordedNet builds the standard test network — 4x4 folded torus with
// a telemetry probe — under uniform Bernoulli load. stopAt 0 means the
// generators never stop.
func newRecordedNet(t testing.TB, rate float64, stopAt, seed int64) *network.Network {
	t.Helper()
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.New(network.Config{
		Topo:   topo,
		Router: router.DefaultConfig(0),
		Seed:   seed,
		Probe:  telemetry.New(telemetry.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < topo.NumTiles(); tile++ {
		g := traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, rate, 2, flit.VCMask(0xFF), seed)
		g.StopAt = stopAt
		n.AttachClient(tile, g)
	}
	return n
}

// attach builds the network's health sampler from sc and subscribes a
// recorder configured by cfg to it.
func attach(t testing.TB, n *network.Network, sc sampler.Config, cfg Config) (*sampler.Sampler, *Recorder) {
	t.Helper()
	smp, err := sampler.Attach(n, sc)
	if err != nil {
		t.Fatal(err)
	}
	return smp, Attach(smp, cfg)
}

// dumpNow requests a dump, runs one cycle so the serial phase drains the
// request, and returns the parsed dump.
func dumpNow(t testing.TB, n *network.Network, rec *Recorder, reason string) *Dump {
	t.Helper()
	done := rec.RequestDump(reason)
	n.Run(1)
	res := <-done
	if res.Err != nil {
		t.Fatalf("dump request failed: %v", res.Err)
	}
	dp, err := LoadDump(res.Path)
	if err != nil {
		t.Fatalf("LoadDump(%s): %v", res.Path, err)
	}
	return dp
}

func TestAttachRequiresProbe(t *testing.T) {
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.New(network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The recorder attaches behind the health sampler, which refuses a
	// network without the probe the ring's deltas difference.
	if _, err := sampler.Attach(n, sampler.Config{}); err == nil ||
		!strings.Contains(err.Error(), "no telemetry probe") {
		t.Fatalf("sampler.Attach without probe: err = %v, want probe error", err)
	}
}

// TestRingWrapsContiguous pins the ring discipline: after running well past
// the window, a dump carries exactly Window records covering a contiguous,
// newest-first-evicted cycle range ending at the trigger.
func TestRingWrapsContiguous(t *testing.T) {
	n := newRecordedNet(t, 0.3, 0, 1)
	_, rec := attach(t, n, sampler.Config{}, Config{Window: 128, Dir: t.TempDir(), ConfigHash: 0xfeed})
	n.Run(500)
	dp := dumpNow(t, n, rec, "wrap")

	if len(dp.Records) != 128 {
		t.Fatalf("dump has %d records, want the full 128-cycle window", len(dp.Records))
	}
	if dp.LastCycle() != 501 {
		t.Fatalf("newest record at cycle %d, want 501 (completed cycles at dump)", dp.LastCycle())
	}
	if dp.FirstCycle() != 501-127 {
		t.Fatalf("oldest record at cycle %d, want %d", dp.FirstCycle(), 501-127)
	}
	for i, r := range dp.Records {
		if r.Cycle != dp.FirstCycle()+int64(i) {
			t.Fatalf("record %d at cycle %d; ring is not contiguous", i, r.Cycle)
		}
	}
	// Indexed access agrees with the layout.
	if r := dp.RecordAt(450); r == nil || r.Cycle != 450 {
		t.Fatalf("RecordAt(450) = %+v", r)
	}
	if dp.RecordAt(dp.FirstCycle()-1) != nil || dp.RecordAt(dp.LastCycle()+1) != nil {
		t.Fatal("RecordAt answered outside the recorded window")
	}
	if got := dp.Range(460, 469); len(got) != 10 || got[0].Cycle != 460 {
		t.Fatalf("Range(460,469) = %d records starting %d", len(got), got[0].Cycle)
	}
	if got := dp.Range(0, 1000); len(got) != 128 {
		t.Fatalf("clipped Range covers %d records, want 128", len(got))
	}

	// The deltas must account for real traffic: summing ejections over the
	// window matches the probe's cumulative counter movement.
	var ej int64
	for _, r := range dp.Records {
		ej += int64(r.Ejected)
	}
	if ej == 0 {
		t.Fatal("no ejections recorded across 128 cycles of rate-0.3 traffic")
	}
}

// TestDumpRoundTrip pins the dump container: every identity field survives
// encode -> parse, and the trigger keyframe makes the window replayable.
func TestDumpRoundTrip(t *testing.T) {
	n := newRecordedNet(t, 0.3, 0, 2)
	spec := []byte(`{"kind":"run","k":4}`)
	_, rec := attach(t, n, sampler.Config{Every: 64}, Config{
		Window: 256, Dir: t.TempDir(),
		ConfigHash: 0xabcdef, SpecJSON: spec, SpecKind: "run",
	})
	n.Run(400)
	dp := dumpNow(t, n, rec, "round-trip")

	if dp.ConfigHash != 0xabcdef {
		t.Fatalf("ConfigHash %#x, want 0xabcdef", dp.ConfigHash)
	}
	if dp.Reason != "round-trip" || dp.SpecKind != "run" {
		t.Fatalf("Reason %q SpecKind %q", dp.Reason, dp.SpecKind)
	}
	if string(dp.SpecJSON) != string(spec) {
		t.Fatalf("SpecJSON %q, want %q", dp.SpecJSON, spec)
	}
	if dp.Window != 256 || dp.Every != 64 || dp.KfEvery != 128 {
		t.Fatalf("cadences: window %d every %d kfEvery %d", dp.Window, dp.Every, dp.KfEvery)
	}
	if dp.Cycle != 401 {
		t.Fatalf("trigger cycle %d, want 401", dp.Cycle)
	}
	if dp.KeyframeErr != "" {
		t.Fatalf("unexpected keyframe error: %q", dp.KeyframeErr)
	}
	// A fresh keyframe lands at the trigger cycle itself, so the newest
	// recorded state is reachable with zero replayed cycles.
	if len(dp.Keyframes) == 0 || dp.Keyframes[len(dp.Keyframes)-1].Cycle != dp.Cycle {
		t.Fatalf("no fresh keyframe at the trigger: %+v", kfCycles(dp))
	}
	if kf := dp.KeyframeBefore(dp.Cycle); kf == nil || kf.Cycle != dp.Cycle {
		t.Fatalf("KeyframeBefore(trigger) = %+v", kf)
	}
	// The attribution sample was captured on the Every cadence.
	if dp.Sample.Cycle%64 != 0 {
		t.Fatalf("sample cycle %d off the health cadence", dp.Sample.Cycle)
	}
	if dp.Sample.Generated == 0 || dp.Sample.EjectedFlits == 0 {
		t.Fatalf("sample missing traffic: %+v", dp.Sample)
	}
}

// TestKeyframeRotation pins retention: the recorder holds the newest
// Keyframes checkpoints, in ascending cycle order, on the kfEvery cadence.
func TestKeyframeRotation(t *testing.T) {
	n := newRecordedNet(t, 0.3, 0, 3)
	_, rec := attach(t, n, sampler.Config{}, Config{Window: 128, Dir: t.TempDir()}) // kfEvery 64
	n.Run(500)
	dp := dumpNow(t, n, rec, "rotate")

	if len(dp.Keyframes) != DefaultKeyframes {
		t.Fatalf("%d keyframes retained, want %d: %v", len(dp.Keyframes), DefaultKeyframes, kfCycles(dp))
	}
	for i := 1; i < len(dp.Keyframes); i++ {
		if dp.Keyframes[i].Cycle <= dp.Keyframes[i-1].Cycle {
			t.Fatalf("keyframes out of order: %v", kfCycles(dp))
		}
	}
	// Newest is the fresh trigger keyframe; the rest sit on the cadence.
	if dp.Keyframes[len(dp.Keyframes)-1].Cycle != dp.Cycle {
		t.Fatalf("newest keyframe %v is not the trigger %d", kfCycles(dp), dp.Cycle)
	}
	for _, kf := range dp.Keyframes[:len(dp.Keyframes)-1] {
		if kf.Cycle%64 != 0 {
			t.Fatalf("keyframe off the cadence: %v", kfCycles(dp))
		}
		if len(kf.Data) == 0 {
			t.Fatalf("keyframe at %d is empty", kf.Cycle)
		}
	}
	// Binary search semantics.
	mid := dp.Keyframes[1].Cycle
	if kf := dp.KeyframeBefore(mid + 1); kf == nil || kf.Cycle != mid {
		t.Fatalf("KeyframeBefore(%d) = %+v", mid+1, kf)
	}
	if kf := dp.KeyframeBefore(dp.Keyframes[0].Cycle - 1); kf != nil {
		t.Fatalf("KeyframeBefore before the oldest returned %d", kf.Cycle)
	}
}

func kfCycles(dp *Dump) []int64 {
	out := make([]int64, len(dp.Keyframes))
	for i, kf := range dp.Keyframes {
		out[i] = kf.Cycle
	}
	return out
}

// TestKeyframeErrorDegradesGracefully: a configuration the checkpoint
// layer cannot cover (a client without dynamic-state support) disables
// keyframes but never the ring — the dump carries the reason and keeps the
// per-cycle record.
func TestKeyframeErrorDegradesGracefully(t *testing.T) {
	n := newRecordedNet(t, 0.3, 0, 4)
	// A bare ClientFunc is not a StatefulClient, so SaveCheckpoint refuses.
	n.AttachClient(0, network.ClientFunc(func(now int64, p *network.Port) {}))
	_, rec := attach(t, n, sampler.Config{}, Config{Window: 64, Dir: t.TempDir()})
	n.Run(200)
	dp := dumpNow(t, n, rec, "degraded")

	if dp.KeyframeErr == "" || !strings.Contains(dp.KeyframeErr, "not checkpointable") {
		t.Fatalf("KeyframeErr = %q, want the checkpoint refusal", dp.KeyframeErr)
	}
	if len(dp.Keyframes) != 0 {
		t.Fatalf("%d keyframes retained despite the checkpoint error", len(dp.Keyframes))
	}
	if len(dp.Records) != 64 {
		t.Fatalf("ring degraded too: %d records, want 64", len(dp.Records))
	}
}

// TestParseDumpRejectsCorruption: a flipped byte anywhere fails parsing
// loudly (the container is CRC-protected per section).
func TestParseDumpRejectsCorruption(t *testing.T) {
	n := newRecordedNet(t, 0.3, 0, 5)
	_, rec := attach(t, n, sampler.Config{}, Config{Window: 64, Dir: t.TempDir()})
	n.Run(100)
	done := rec.RequestDump("corrupt")
	n.Run(1)
	res := <-done
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	data, err := os.ReadFile(res.Path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseDump(data); err != nil {
		t.Fatalf("pristine dump does not parse: %v", err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	if _, err := ParseDump(bad); err == nil {
		t.Fatal("corrupted dump parsed without error")
	}
}

// TestDumpFileNaming pins the on-disk contract nocpost and operators rely
// on: flightrec-<cycle>-<seq>-<reason>.frec with a sanitized reason slug.
func TestDumpFileNaming(t *testing.T) {
	dir := t.TempDir()
	n := newRecordedNet(t, 0.3, 0, 6)
	_, rec := attach(t, n, sampler.Config{}, Config{Window: 64, Dir: dir})
	n.Run(50)
	done := rec.RequestDump("SIG quit!")
	n.Run(1)
	if res := <-done; res.Err != nil {
		t.Fatal(res.Err)
	}
	dumps := rec.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("Dumps() = %v, want one path", dumps)
	}
	base := filepath.Base(dumps[0])
	if base != "flightrec-000000000051-001-sig-quit-.frec" {
		t.Fatalf("dump filename %q breaks the naming contract", base)
	}
	if _, err := os.Stat(dumps[0]); err != nil {
		t.Fatal(err)
	}
}

// stallTile wedges every input controller of the tile, the golden
// deadlock/starvation fault.
func stallTile(n *network.Network, tile int) {
	for _, d := range []route.Dir{route.North, route.East, route.South, route.West} {
		n.SetPortStall(tile, d, true)
	}
}

// TestAutoDumpOnDeadlock is the tentpole golden: the embedded detector
// fires on a wedged network, the dump is written without any operator
// action, and the recorded attribution is recomputable from the dumped
// sample alone — exactly what `nocpost verdict` cross-checks.
func TestAutoDumpOnDeadlock(t *testing.T) {
	dir := t.TempDir()
	n := newRecordedNet(t, 0.3, 300, 5)
	smp, rec := attach(t, n, sampler.Config{Every: 64, Health: health.Config{DeadlockWindow: 256}}, Config{Window: 4096, Dir: dir})
	n.Run(100)
	stallTile(n, 5)
	n.Run(3000)
	if n.Occupancy() == 0 {
		t.Fatal("network drained despite the stalled router; scenario is vacuous")
	}

	dumps := rec.Dumps()
	if len(dumps) == 0 {
		t.Fatal("deadlock fired but no dump was written")
	}
	if !strings.Contains(filepath.Base(dumps[0]), "detector-deadlock") {
		t.Fatalf("dump %q does not carry the detector reason", dumps[0])
	}
	dp, err := LoadDump(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	if dp.Reason != "detector-deadlock" {
		t.Fatalf("dump reason %q", dp.Reason)
	}

	// The recorded transition log carries the live attribution.
	var live health.Event
	for _, ev := range dp.Health {
		if ev.Detector == health.DetectorDeadlock && !ev.Healthy {
			live = ev
		}
	}
	if live.Detector == "" {
		t.Fatalf("dump health log lacks the deadlock transition: %+v", dp.Health)
	}
	if !strings.Contains(live.Detail, "t5:") || !strings.Contains(live.Detail, "stalled port") {
		t.Fatalf("live attribution does not blame tile 5's stalled port: %q", live.Detail)
	}

	// Post-mortem recomputation from the dumped sample matches it byte for
	// byte — the verdict-parity guarantee nocpost builds on.
	if len(dp.Sample.Waiting) == 0 {
		t.Fatal("attribution sample carries no waiting VCs")
	}
	s := health.Sample{
		Cycle:            dp.Sample.Cycle,
		GeneratedPackets: dp.Sample.Generated,
		EjectedFlits:     dp.Sample.EjectedFlits,
		BufOcc:           dp.Sample.BufOcc,
		Waiting:          dp.Sample.Waiting,
		HotLinks:         dp.Sample.HotLinks,
		DeadLinks:        dp.Sample.DeadLinks,
	}
	if got := health.DeadlockDetail(s); got != live.Detail {
		t.Fatalf("recomputed attribution differs from live:\n  live: %q\n  post: %q", live.Detail, got)
	}

	// The sampler's monitor agrees with the recorder's log.
	var verdict health.Verdict
	for _, v := range smp.Monitor().Verdicts() {
		if v.Detector == health.DetectorDeadlock {
			verdict = v
		}
	}
	if verdict.Healthy || verdict.Detail != live.Detail {
		t.Fatalf("monitor verdict %+v disagrees with the recorded transition %q", verdict, live.Detail)
	}
}

// TestAutoDumpOnStarvation: tile 5 starves while the rest of the die keeps
// delivering — the starvation detector (not deadlock) fires and dumps.
func TestAutoDumpOnStarvation(t *testing.T) {
	dir := t.TempDir()
	n := newRecordedNet(t, 0.25, 0, 6)
	_, rec := attach(t, n, sampler.Config{Every: 64, Health: health.Config{StarveAge: 256, DeadlockWindow: 1 << 30}}, Config{Window: 4096, Dir: dir})
	n.Run(200)
	if n.Router(5).Occupancy() == 0 {
		t.Fatal("router 5 empty at stall time; scenario is vacuous")
	}
	stallTile(n, 5)
	n.Run(1500)

	dumps := rec.Dumps()
	if len(dumps) == 0 {
		t.Fatal("starvation fired but no dump was written")
	}
	dp, err := LoadDump(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	if dp.Reason != "detector-starvation" {
		t.Fatalf("dump reason %q, want detector-starvation", dp.Reason)
	}
	found := false
	for _, ev := range dp.Health {
		if ev.Detector == health.DetectorStarvation && !ev.Healthy {
			if !strings.Contains(ev.Detail, "t5:") {
				t.Fatalf("starvation attribution does not name tile 5: %q", ev.Detail)
			}
			found = true
		}
		if ev.Detector == health.DetectorDeadlock && !ev.Healthy {
			t.Fatalf("deadlock fired on a progressing network: %q", ev.Detail)
		}
	}
	if !found {
		t.Fatalf("dump health log lacks the starvation transition: %+v", dp.Health)
	}
}

// TestAutoDumpOnCongestionCollapse: offered load holds while capacity is
// progressively removed — the collapse detector fires and dumps with hot
// link attribution.
func TestAutoDumpOnCongestionCollapse(t *testing.T) {
	dir := t.TempDir()
	n := newRecordedNet(t, 0.5, 0, 7)
	_, rec := attach(t, n, sampler.Config{Every: 256, Health: health.Config{
		CollapseWindows:   2,
		CollapseTolerance: 0.05,
		DeadlockWindow:    1 << 30,
		StarveAge:         1 << 30,
	}}, Config{Window: 4096, Dir: dir})
	n.Run(512)
	stallTile(n, 5)
	n.Run(256)
	stallTile(n, 6)
	n.Run(512)

	dumps := rec.Dumps()
	if len(dumps) == 0 {
		t.Fatal("congestion collapse fired but no dump was written")
	}
	dp, err := LoadDump(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	if dp.Reason != "detector-congestion" {
		t.Fatalf("dump reason %q, want detector-congestion", dp.Reason)
	}
	found := false
	for _, ev := range dp.Health {
		if ev.Detector == health.DetectorCongestion && !ev.Healthy {
			if !strings.Contains(ev.Detail, "delivered rate fell") {
				t.Fatalf("collapse detail missing the rate evidence: %q", ev.Detail)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("dump health log lacks the collapse transition: %+v", dp.Health)
	}
}

// TestHealthyRunWritesNoDumps: the always-on recorder on a comfortable
// load writes nothing — dumps appear only when something is wrong or asked
// for.
func TestHealthyRunWritesNoDumps(t *testing.T) {
	dir := t.TempDir()
	n := newRecordedNet(t, 0.2, 0, 8)
	_, rec := attach(t, n, sampler.Config{Every: 64}, Config{Window: 512, Dir: dir})
	n.Run(4096)
	if dumps := rec.Dumps(); len(dumps) != 0 {
		t.Fatalf("healthy run wrote dumps: %v", dumps)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("dump dir not empty after a healthy run: %v", entries)
	}
}

// TestCrashDump: a panic unwinding the cycle loop leaves a dump behind —
// the ring and the already-taken keyframes, but no fresh keyframe (the
// mid-cycle state is wreckage).
func TestCrashDump(t *testing.T) {
	dir := t.TempDir()
	n := newRecordedNet(t, 0.3, 0, 9)
	_, rec := attach(t, n, sampler.Config{}, Config{Window: 64, Dir: dir}) // kfEvery 32
	n.Kernel().AddPhase("boom", func(now sim.Cycle) {
		if now == 100 {
			panic("injected test crash")
		}
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the injected panic did not propagate")
			}
		}()
		n.Run(200)
	}()

	dumps := rec.Dumps()
	if len(dumps) != 1 || !strings.Contains(filepath.Base(dumps[0]), "panic") {
		t.Fatalf("crash dump missing: %v", dumps)
	}
	dp, err := LoadDump(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	if dp.Reason != "panic" || dp.Cycle != 100 {
		t.Fatalf("crash dump reason %q at cycle %d, want panic at 100", dp.Reason, dp.Cycle)
	}
	// No fresh keyframe at the crash cycle — only the cadence ones.
	for _, kf := range dp.Keyframes {
		if kf.Cycle%32 != 0 {
			t.Fatalf("crash dump took a mid-crash keyframe at cycle %d", kf.Cycle)
		}
	}
	if dp.LastCycle() < 100 {
		t.Fatalf("ring stops at %d; the wedge cycle is not recorded", dp.LastCycle())
	}
}
