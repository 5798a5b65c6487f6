package noc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry/serve"
)

// The serve smoke test exercises the -serve flag end to end through a real
// nocsim binary: the command announces its ephemeral address on stderr,
// the /metrics endpoint speaks parseable Prometheus text while the run is
// still in flight, /healthz answers 200 on a healthy network, and a full
// run shuts the server down cleanly with exit status 0. `make ci` runs it
// as part of the race-detected suite.

// buildNocsim compiles cmd/nocsim into the test's temp dir.
func buildNocsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nocsim")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nocsim")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/nocsim: %v\n%s", err, out)
	}
	return bin
}

// serveAddr starts the binary with the given extra args plus
// -serve 127.0.0.1:0 and scans stderr for the announced address. The
// returned reader stays attached so the pipe never blocks the child.
func serveAddr(t *testing.T, cmd *exec.Cmd) string {
	t.Helper()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	const marker = "serving live observability on http://"
	sc := bufio.NewScanner(stderr)
	deadline := time.Now().Add(30 * time.Second)
	for sc.Scan() {
		if line := sc.Text(); strings.Contains(line, marker) {
			addr := strings.TrimSpace(line[strings.Index(line, marker)+len(marker):])
			// Keep draining stderr so the child never blocks on the pipe.
			go func() {
				for sc.Scan() {
				}
			}()
			return addr
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Fatalf("nocsim never announced its serve address (scan err: %v)", sc.Err())
	return ""
}

// getOK retries briefly so the scrape cannot race the first cycle-0 sample.
func getOK(t *testing.T, url string) *http.Response {
	t.Helper()
	var resp *http.Response
	var err error
	for i := 0; i < 100; i++ {
		resp, err = http.Get(url)
		if err == nil && resp.StatusCode == http.StatusOK {
			return resp
		}
		if err == nil {
			resp.Body.Close()
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("GET %s never returned 200 (last: resp=%v err=%v)", url, resp, err)
	return nil
}

func TestServeSmokeLiveScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test is not -short")
	}
	bin := buildNocsim(t)

	// A run long enough that the server is guaranteed to still be up
	// while we scrape; the process is killed once the scrape passes.
	cmd := exec.Command(bin,
		"-serve", "127.0.0.1:0",
		"-k", "4", "-rate", "0.2", "-flits", "2",
		"-warmup", "100", "-measure", "100000000",
	)
	addr := serveAddr(t, cmd)
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	resp := getOK(t, "http://"+addr+"/metrics")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q lacks the text exposition version", ct)
	}
	metrics, err := serve.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text: %v", err)
	}
	byKey := map[string]float64{}
	for _, m := range metrics {
		byKey[m.Key()] = m.Value
	}
	if _, ok := byKey["noc_cycle"]; !ok {
		t.Error("scrape lacks noc_cycle")
	}
	if v, ok := byKey["noc_healthy"]; !ok || v != 1 {
		t.Errorf("noc_healthy = %v, %v; want 1 on a healthy run", v, ok)
	}

	hz := getOK(t, "http://"+addr+"/healthz")
	defer hz.Body.Close()
	body := make([]byte, 1<<16)
	n, _ := hz.Body.Read(body)
	if !strings.Contains(string(body[:n]), `"status"`) {
		t.Errorf("/healthz body lacks a status field: %s", body[:n])
	}
}

func TestServeSmokeCleanShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test is not -short")
	}
	bin := buildNocsim(t)

	// A complete short run: the server must come up, the run must finish,
	// and the process must exit 0 with the server closed cleanly.
	cmd := exec.Command(bin,
		"-serve", "127.0.0.1:0",
		"-k", "4", "-rate", "0.2",
		"-warmup", "100", "-measure", "1000",
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("nocsim -serve full run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "serving live observability on http://") {
		t.Fatalf("full run never announced the serve address:\n%s", out)
	}
}

func TestServeSmokeFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test is not -short")
	}
	bin := buildNocsim(t)
	// Trace files whose packets are 8 and 2 flits long (tracegen -bytes
	// 256 and -bytes 64 lines).
	trace := func(bytes int) string {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("t%d.trace", bytes))
		body := fmt.Sprintf("# cycle src dst bytes class\n0 6 6 %d 0\n0 6 5 %d 0\n3 7 0 %d 0\n", bytes, bytes, bytes)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	t256, t64 := trace(256), trace(64)
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"metrics-out without metrics", []string{"-metrics-out", "m.csv"}, "-metrics-out requires -metrics"},
		{"tracefile-out without metrics", []string{"-tracefile-out", "t.json"}, "-tracefile-out requires -metrics"},
		{"negative metrics-every", []string{"-metrics", "-metrics-every", "-5"}, "-metrics-every must be >= 0"},
		{"print-layout radix out of range", []string{"-print-layout", "-k", "129"}, "radix k=129 outside [3, 128]"},
		{"zero shards", []string{"-shards", "0"}, "-shards must be >= 1"},
		{"measurement window overflows", []string{"-warmup", "10", "-measure", "9223372036854775807"}, "warmup_cycles + measure_cycles"},
		// Packets the flow control would refuse fail core.Spec.Validate
		// instead of a run that reports nothing delivered.
		{"drop multi-flit", []string{"-mode", "drop", "-flits", "4"}, "flits_per_packet=4: network: multi-flit packet in single-flit flow-control mode"},
		{"deflect multi-flit", []string{"-mode", "deflect", "-flits", "2"}, "flits_per_packet=2: network: multi-flit packet in single-flit flow-control mode"},
		{"cut-through packet over buffers", []string{"-mode", "vct", "-flits", "8", "-buf", "4", "-rate", "0.2"}, "flits_per_packet=8: network: 8-flit packet exceeds the 4-flit buffers"},
		// So do trace events, which used to vanish from the replay; the
		// error names the first refused event (a loopback never enters
		// the network).
		{"trace cut-through packet over buffers", []string{"-trace", t256, "-mode", "vct", "-buf", "4"},
			"trace event {Cycle:0 Src:6 Dst:5 Bytes:256 Class:0}: network: 8-flit packet exceeds the 4-flit buffers"},
		{"trace deflect multi-flit", []string{"-trace", t64, "-mode", "deflect"},
			"trace event {Cycle:0 Src:6 Dst:5 Bytes:64 Class:0}: network: multi-flit packet in single-flit flow-control mode"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Validation must fail at once; the timeout stops an unchecked
			// radix from running the layout's all-pairs analysis for minutes.
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, tc.args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("nocsim %v: err = %v; want exit status 1 from validation\n%s", tc.args, err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("nocsim %v output lacks %q:\n%s", tc.args, tc.want, out)
			}
		})
	}
}
