package noc

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// The crash-resume smoke test exercises the checkpoint/restore stack the
// way a real outage would: a nocsim fault campaign is SIGKILLed mid-run
// with no chance to flush anything, its newest checkpoint is torn in half
// (the torn-write case the atomic rename protocol defends against), and a
// -resume run against the same directory must fall back to the previous
// valid checkpoint and finish the campaign with a report and metrics CSV
// byte-identical to an uninterrupted reference run. `make ci` runs it as
// part of the race-detected suite.

// campaignArgs are the shared flags for all three runs: the reference run
// checkpoints too (into its own directory), so every run has the same
// configuration hash.
func campaignArgs(dir, metricsOut string) []string {
	return []string{
		"-k", "4", "-rate", "0.2", "-mtbf", "3000", "-watchdog", "64",
		"-seed", "7", "-warmup", "200", "-measure", "60000",
		"-metrics", "-metrics-out", metricsOut,
		"-checkpoint-every", "2000", "-checkpoint-dir", dir,
	}
}

// stripPaths drops the report lines that legitimately differ between
// runs (the emitted artifact paths); everything else must match exactly.
func stripPaths(out []byte) string {
	var kept []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, "metrics written to") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// checkpointFiles lists the ckpt-*.noc files in dir, sorted by name (the
// zero-padded cycle number makes that oldest-first).
func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.noc"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

func TestCrashResumeSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI crash-resume smoke test is not -short")
	}
	bin := buildNocsim(t)
	work := t.TempDir()

	// Uninterrupted reference: the ground truth the resumed run must hit.
	refDir := filepath.Join(work, "ref-ckpt")
	refCSV := filepath.Join(work, "ref.csv")
	refCmd := exec.Command(bin, campaignArgs(refDir, refCSV)...)
	refOut, err := refCmd.Output()
	if err != nil {
		t.Fatalf("reference campaign failed: %v\n%s", err, refOut)
	}

	// Crash run: identical flags, fresh checkpoint directory. Poll for two
	// on-disk checkpoints (so a torn newest still leaves a fallback), then
	// SIGKILL — no signal handler, no flush, exactly like a crash.
	crashDir := filepath.Join(work, "crash-ckpt")
	crashCSV := filepath.Join(work, "crash.csv")
	crashCmd := exec.Command(bin, campaignArgs(crashDir, crashCSV)...)
	crashCmd.Stdout = new(bytes.Buffer)
	crashCmd.Stderr = new(bytes.Buffer)
	if err := crashCmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for len(checkpointFiles(t, crashDir)) < 2 {
		if time.Now().After(deadline) {
			crashCmd.Process.Kill()
			crashCmd.Wait()
			t.Fatal("no two checkpoints appeared within 60s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := crashCmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL failed (did the run finish early?): %v", err)
	}
	if err := crashCmd.Wait(); err == nil {
		t.Fatal("crash run exited cleanly; the campaign horizon is too short to kill mid-run")
	}
	if _, err := os.Stat(crashCSV); !os.IsNotExist(err) {
		t.Fatalf("killed run left a metrics CSV (stat err %v); it was not interrupted", err)
	}

	// Tear the newest checkpoint: keep the first half of its bytes, as if
	// the machine died mid-write without the rename protocol. LoadLatest
	// must reject it on CRC and fall back to the previous file.
	files := checkpointFiles(t, crashDir)
	newest := files[len(files)-1]
	blob, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: same flags plus -resume. It must pick up from the fallback
	// checkpoint, replay the remaining cycles, and land on the reference
	// report and metrics bytes.
	gotCSV := filepath.Join(work, "got.csv")
	resumeCmd := exec.Command(bin, append(campaignArgs(crashDir, gotCSV), "-resume")...)
	gotOut, err := resumeCmd.Output()
	if err != nil {
		t.Fatalf("resumed campaign failed: %v\n%s", err, gotOut)
	}
	if got, ref := stripPaths(gotOut), stripPaths(refOut); got != ref {
		t.Errorf("resumed campaign report diverged from the uninterrupted reference\n--- reference ---\n%s\n--- resumed ---\n%s", ref, got)
	}
	ref, err := os.ReadFile(refCSV)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(gotCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("resumed metrics CSV diverged from the uninterrupted reference (%d vs %d bytes)", len(got), len(ref))
	}
}

// TestDeflectCheckpointResumeCLI: a deflection run checkpoints like any
// other. `nocsim -mode deflect -checkpoint-every 500 -checkpoint-dir D`
// must finish, and the same command with -resume, restarted from the
// oldest checkpoint left in D, must print the straight run's report (the
// engine line, which times the process, aside).
func TestDeflectCheckpointResumeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI checkpoint smoke test is not -short")
	}
	bin := buildNocsim(t)
	report := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("nocsim %v: %v\n%s%s", args, err, out, stderr.Bytes())
		}
		var kept []string
		for _, line := range strings.Split(string(out), "\n") {
			if !strings.HasPrefix(line, "engine") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	args := []string{"-mode", "deflect", "-rate", "0.3"}
	straight := report(args...)
	dir := t.TempDir()
	ckptArgs := append(args, "-checkpoint-every", "500", "-checkpoint-dir", dir)
	if got := report(ckptArgs...); got != straight {
		t.Errorf("checkpointing run diverged from the straight run\n--- straight ---\n%s\n--- checkpointing ---\n%s", straight, got)
	}
	files := checkpointFiles(t, dir)
	if len(files) < 2 {
		t.Fatalf("checkpointing run left %d checkpoints, want at least 2", len(files))
	}
	for _, f := range files[1:] {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := report(append(ckptArgs, "-resume")...); got != straight {
		t.Errorf("resumed run diverged from the straight run\n--- straight ---\n%s\n--- resumed from %s ---\n%s", straight, filepath.Base(files[0]), got)
	}
}
