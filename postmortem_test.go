package noc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/sampler"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The post-mortem suite gates the flight recorder's central promise:
// any recorded cycle is reconstructable EXACTLY — restore the newest
// keyframe at or before it, re-execute the deterministic engine forward,
// and the resulting state is byte-identical to a straight-through run —
// regardless of the shard count the original run used.

// recordedRun executes core.Run with a flight recorder attached and a dump
// requested near the end of the horizon, returning the parsed dump.
func recordedRun(t *testing.T, shards int) *flightrec.Dump {
	t.Helper()
	dp, err := flightrec.LoadDump(recordedDump(t, shards))
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

// recordedDump is recordedRun's run, returning the dump file's path.
func recordedDump(t *testing.T, shards int) string {
	t.Helper()
	dir := t.TempDir()
	p := core.DefaultRunParams()
	p.Rate = 0.3
	p.FlitsPerPacket = 2
	p.WarmupCycles = 0
	p.MeasureCycles = 2000
	p.Seed = 9
	p.Probe = telemetry.New(telemetry.Config{})
	p.Shards = shards

	var rec *flightrec.Recorder
	p.OnNetwork = func(n *network.Network, id core.SimSpec) error {
		hash, err := id.Hash()
		if err != nil {
			return err
		}
		spec, err := id.JSON()
		if err != nil {
			return err
		}
		smp, err := sampler.Attach(n, sampler.Config{})
		if err != nil {
			return err
		}
		r := flightrec.Attach(smp, flightrec.Config{
			Window: 512, Dir: dir,
			ConfigHash: hash, SpecJSON: spec, SpecKind: id.Kind,
		})
		rec = r
		n.Kernel().AddPhase("trigger", func(now sim.Cycle) {
			if now == 1700 {
				r.RequestDump("exactness")
			}
		})
		return nil
	}
	if _, err := core.Run(p); err != nil {
		t.Fatal(err)
	}
	dumps := rec.Dumps()
	if len(dumps) == 0 {
		t.Fatalf("no dump written (recorder err: %v)", rec.Err())
	}
	return dumps[0]
}

// reconstruct rebuilds the network from the dump's spec, restores the
// newest keyframe at or before cycle (or starts from the cycle-0 rebuild
// when none qualifies), replays forward, and returns the checkpoint image
// of the reconstructed state — the nocpost replay path, in-process.
func reconstruct(t *testing.T, dp *flightrec.Dump, cycle int64) []byte {
	t.Helper()
	spec, err := core.ParseSpec(dp.SpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	n, err := spec.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if kf := dp.KeyframeBefore(cycle); kf != nil {
		f, err := checkpoint.Parse(kf.Data)
		if err != nil {
			t.Fatalf("keyframe at %d: %v", kf.Cycle, err)
		}
		if f.ConfigHash != dp.ConfigHash {
			t.Fatalf("keyframe hash %#x, dump hash %#x", f.ConfigHash, dp.ConfigHash)
		}
		if err := n.RestoreCheckpoint(f); err != nil {
			t.Fatalf("restore keyframe at %d: %v", kf.Cycle, err)
		}
	}
	// Advance via the kernel, not network.Run: nothing a straight-through
	// run would not have done at this cycle may perturb the state.
	if delta := cycle - int64(n.Kernel().Now()); delta > 0 {
		n.Kernel().Run(delta)
	}
	img, err := n.SaveCheckpoint(dp.ConfigHash, cycle)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// straightThrough rebuilds from the spec and runs from cycle 0 with no
// keyframe involved — the reference the reconstruction must byte-match.
func straightThrough(t *testing.T, dp *flightrec.Dump, cycle int64) []byte {
	t.Helper()
	spec, err := core.ParseSpec(dp.SpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	n, err := spec.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	n.Kernel().Run(cycle)
	img, err := n.SaveCheckpoint(dp.ConfigHash, cycle)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestFlightRecReconstructionExact is the acceptance gate: keyframe +
// delta replay byte-matches the straight-through state at several shard
// counts, at a keyframe-aligned cycle, an
// unaligned one, and one older than every retained keyframe (the
// rebuild-from-zero fallback).
func TestFlightRecReconstructionExact(t *testing.T) {
	if testing.Short() {
		t.Skip("replay exactness sweep is not -short")
	}
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dp := recordedRun(t, shards)
			if len(dp.Keyframes) == 0 {
				t.Fatalf("dump has no keyframes (err %q)", dp.KeyframeErr)
			}
			targets := []int64{
				dp.LastCycle() - 7,          // keyframe + partial replay
				dp.Keyframes[0].Cycle,       // keyframe-aligned: zero replayed cycles
				dp.Keyframes[0].Cycle - 100, // older than every keyframe: from-zero fallback
			}
			for _, c := range targets {
				if c < 0 {
					continue
				}
				got := reconstruct(t, dp, c)
				want := straightThrough(t, dp, c)
				if !bytes.Equal(got, want) {
					t.Errorf("cycle %d: reconstructed state (%d bytes) differs from straight-through (%d bytes)",
						c, len(got), len(want))
				}
			}
		})
	}
}

// TestFlightRecRebaseAfterRestore: a flight recorder and health sampler
// attached to a network that then restores a checkpoint, as every resume
// does, difference against the restored counters. Every ring record and
// every sampled observation after the restore cycle equals the straight
// run's. Without the rebase, the first record after the restore counted
// every event since cycle 0, and the first sample ranked every link by
// its flits since cycle 0. (The detectors' own state is not part of a
// checkpoint, so only the observation the sampler takes is compared.)
func TestFlightRecRebaseAfterRestore(t *testing.T) {
	const restoreAt, until = 1000, 2000
	type observed struct {
		health.Sample
		LinkInFlight int64
	}
	build := func() (*network.Network, *flightrec.Recorder, *[]observed) {
		topo, err := topology.NewFoldedTorus(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		n, err := network.New(network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 3, Probe: telemetry.New(telemetry.Config{})})
		if err != nil {
			t.Fatal(err)
		}
		for tile := 0; tile < topo.NumTiles(); tile++ {
			n.AttachClient(tile, traffic.NewGenerator(tile, traffic.Uniform{Tiles: 16}, 0.2, 1, flit.VCMask(0xFF), 3))
		}
		smp, err := sampler.Attach(n, sampler.Config{Every: 64})
		if err != nil {
			t.Fatal(err)
		}
		var samples []observed
		smp.Subscribe(func(s *sampler.Sample) {
			o := observed{Sample: s.Sample, LinkInFlight: s.LinkInFlight}
			o.Waiting = append([]health.VCWait(nil), s.Waiting...)
			o.HotLinks = append([]health.LinkLoad(nil), s.HotLinks...)
			samples = append(samples, o)
		})
		rec := flightrec.Attach(smp, flightrec.Config{Window: 2 * until, Dir: t.TempDir()})
		return n, rec, &samples
	}
	ring := func(n *network.Network, rec *flightrec.Recorder) []flightrec.Record {
		done := rec.RequestDump("rebase")
		n.Run(1)
		res := <-done
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		dp, err := flightrec.LoadDump(res.Path)
		if err != nil {
			t.Fatal(err)
		}
		return dp.Range(restoreAt+1, dp.LastCycle())
	}

	straight, straightRec, straightSamples := build()
	straight.Run(restoreAt)
	img, err := straight.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	straight.Run(until - restoreAt)
	resumed, resumedRec, resumedSamples := build()
	if err := resumed.Fork(img, 1); err != nil {
		t.Fatal(err)
	}
	resumed.Run(until - restoreAt)

	want, got := ring(straight, straightRec), ring(resumed, resumedRec)
	if len(want) != until-restoreAt+1 || !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("ring record at cycle %d after the restore:\nresumed  %+v\nstraight %+v", want[i].Cycle, got[i], want[i])
			}
		}
		t.Fatalf("resumed ring holds %d records after cycle %d, straight %d", len(got), restoreAt, len(want))
	}
	var after []observed
	for _, s := range *straightSamples {
		if s.Cycle >= restoreAt {
			after = append(after, s)
		}
	}
	if len(after) == 0 || len(after[0].HotLinks) == 0 {
		t.Fatal("no sample with hot links after the restore; the comparison is vacuous")
	}
	if !reflect.DeepEqual(*resumedSamples, after) {
		for i := range min(len(*resumedSamples), len(after)) {
			if g, w := (*resumedSamples)[i], after[i]; !reflect.DeepEqual(g, w) {
				t.Fatalf("sample at cycle %d after the restore:\nresumed  %+v\nstraight %+v", w.Cycle, g, w)
			}
		}
		t.Fatalf("resumed run took %d samples after cycle %d, straight %d", len(*resumedSamples), restoreAt, len(after))
	}
}

// TestFlightRecRingMatchesReplay cross-checks the ring against replay the
// way `nocpost state` does: the instantaneous occupancy the original run
// recorded at a cycle equals the occupancy of the reconstructed state.
func TestFlightRecRingMatchesReplay(t *testing.T) {
	dp := recordedRun(t, 2)
	spec, err := core.ParseSpec(dp.SpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	n, err := spec.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	kf := dp.KeyframeBefore(dp.LastCycle())
	if kf == nil {
		t.Fatal("no keyframe covers the newest record")
	}
	f, err := checkpoint.Parse(kf.Data)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RestoreCheckpoint(f); err != nil {
		t.Fatal(err)
	}
	for c := kf.Cycle; c <= dp.LastCycle(); c += 13 {
		if delta := c - int64(n.Kernel().Now()); delta > 0 {
			n.Kernel().Run(delta)
		}
		rec := dp.RecordAt(c)
		if rec == nil {
			continue
		}
		inFlight := n.LinksInFlight()
		bufOcc := n.Occupancy() - inFlight
		if uint32(bufOcc) != rec.BufOcc || uint32(inFlight) != rec.LinkInFlight {
			t.Fatalf("cycle %d: replayed occupancy %d/%d, ring recorded %d/%d",
				c, bufOcc, inFlight, rec.BufOcc, rec.LinkInFlight)
		}
	}
}

// buildNocpost compiles cmd/nocpost into the test's temp dir.
func buildNocpost(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nocpost")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nocpost")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/nocpost: %v\n%s", err, out)
	}
	return bin
}

// TestFlightRecSmoke is the post-mortem smoke `make ci` runs: a real
// nocsim binary wedges itself under the deliberate-deadlock fault
// campaign with -flightrec on, the detector fire writes a dump with no
// operator involvement, and a real nocpost binary's verdict recomputes
// the same root cause and attribution the live detectors recorded.
func TestFlightRecSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test is not -short")
	}
	nocsim := buildNocsim(t)
	nocpost := buildNocpost(t)
	dir := t.TempDir()

	cmd := exec.Command(nocsim,
		"-mode", "vc", "-topo", "torus", "-k", "4",
		"-rate", "0.25", "-warmup", "0", "-measure", "6000", "-seed", "5",
		"-watchdog", "64",
		"-faults", "stall,tile=5,port=N,at=100;stall,tile=5,port=E,at=100;stall,tile=5,port=S,at=100;stall,tile=5,port=W,at=100",
		"-flightrec", "-flightrec-dir", dir,
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("nocsim campaign failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "flightrec: dump written to ") {
		t.Fatalf("nocsim never announced a dump:\n%s", out)
	}

	matches, err := filepath.Glob(filepath.Join(dir, "flightrec-*-detector-deadlock.frec"))
	if err != nil || len(matches) == 0 {
		entries, _ := os.ReadDir(dir)
		t.Fatalf("no detector-deadlock dump in %s (glob err %v, dir: %v)", dir, err, entries)
	}
	dump := matches[0]

	info, err := exec.Command(nocpost, "info", dump).CombinedOutput()
	if err != nil {
		t.Fatalf("nocpost info: %v\n%s", err, info)
	}
	for _, want := range []string{"detector-deadlock", "campaign", "link", "declared dead"} {
		if !strings.Contains(string(info), want) {
			t.Errorf("nocpost info lacks %q:\n%s", want, info)
		}
	}

	verdict, err := exec.Command(nocpost, "verdict", dump).CombinedOutput()
	if err != nil {
		t.Fatalf("nocpost verdict: %v\n%s", err, verdict)
	}
	vs := string(verdict)
	// The post-mortem monitor replay reproduces every recorded transition...
	if !strings.Contains(vs, "[matches recorded]") {
		t.Errorf("verdict's monitor replay does not match the recorded transitions:\n%s", vs)
	}
	if strings.Contains(vs, "[not in recorded log]") || strings.Contains(vs, "detail differs") {
		t.Errorf("verdict's monitor replay diverged from the live log:\n%s", vs)
	}
	// ...and the root cause names the same deadlock the live detector saw,
	// with a byte-identical recomputed attribution.
	if !strings.Contains(vs, "root cause: deadlock") {
		t.Errorf("verdict does not name deadlock as the root cause:\n%s", vs)
	}
	if !strings.Contains(vs, "[post-mortem recomputation matches the live attribution]") {
		t.Errorf("recomputed attribution does not match the live one:\n%s", vs)
	}
	if !strings.Contains(vs, "t5:") {
		t.Errorf("verdict does not attribute tile 5:\n%s", vs)
	}

	// A campaign cannot be rebuilt from its spec, so links renders the
	// ring lane and notes that per-link lanes need replay.
	links, err := exec.Command(nocpost, "links", dump).CombinedOutput()
	if err != nil {
		t.Fatalf("nocpost links: %v\n%s", err, links)
	}
	if !strings.Contains(string(links), "all links (ring)") || !strings.Contains(string(links), "(per-link lanes unavailable:") {
		t.Errorf("nocpost links lacks the ring lane or the unavailable note:\n%s", links)
	}
	bad, err := exec.Command(nocpost, "links", "-top", "-1", dump).CombinedOutput()
	if err == nil || !strings.Contains(string(bad), "-top must be >= 0") {
		t.Errorf("nocpost links -top -1: err = %v, want a failure naming -top:\n%s", err, bad)
	}
}

// TestNocpostReplayWindow: state and waitgraph replay the engine forward
// to -cycle, and links to -to, so a cycle past the dump's recorded window
// must fail fast with exit 1 and a message naming the window, not
// simulate without bound; their defaults, inside the window, still replay.
func TestNocpostReplayWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test is not -short")
	}
	nocpost := buildNocpost(t)
	dump := recordedDump(t, 1)
	dp, err := flightrec.LoadDump(dump)
	if err != nil {
		t.Fatal(err)
	}
	window := fmt.Sprintf("recorded window, cycles %d..%d", dp.FirstCycle(), dp.LastCycle())
	run := func(args ...string) (string, int) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		out, err := exec.CommandContext(ctx, nocpost, args...).CombinedOutput()
		if ctx.Err() != nil {
			t.Fatalf("nocpost %v still replaying after 30 s", args)
		}
		var ee *exec.ExitError
		if err != nil && !errors.As(err, &ee) {
			t.Fatalf("nocpost %v: %v", args, err)
		}
		if ee != nil {
			return string(out), ee.ExitCode()
		}
		return string(out), 0
	}
	for _, cmd := range []string{"state", "waitgraph"} {
		for _, cycle := range []int64{dp.LastCycle() + 1, 999999999999} {
			out, code := run(cmd, "-cycle", fmt.Sprint(cycle), dump)
			if code != 1 || !strings.Contains(out, window) {
				t.Errorf("nocpost %s -cycle %d: exit %d, want 1 naming the %q:\n%s", cmd, cycle, code, window, out)
			}
		}
		if out, code := run(cmd, dump); code != 0 {
			t.Errorf("nocpost %s at its default cycle: exit %d\n%s", cmd, code, out)
		}
	}
	for _, to := range []int64{dp.LastCycle() + 1, 999999999999} {
		out, code := run("links", "-to", fmt.Sprint(to), dump)
		if code != 1 || !strings.Contains(out, window) {
			t.Errorf("nocpost links -to %d: exit %d, want 1 naming the %q:\n%s", to, code, window, out)
		}
	}
	if out, code := run("links", dump); code != 0 {
		t.Errorf("nocpost links over its default window: exit %d\n%s", code, out)
	}
}
