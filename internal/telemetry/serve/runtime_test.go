package serve

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/telemetry/sampler"
)

// artifactGet exercises the process-global artifact cache with a
// throwaway key.
func artifactGet(key string) (any, error) {
	return artifact.Get(key, func() (any, error) { return struct{}{}, nil })
}

// TestWriteRuntimePromParsesStrict feeds the Go-runtime self-monitoring
// rows through the same strict scraper that gates the simulation rows: a
// formatting slip (Inf pause quantile, unquoted build label) must fail
// here, not in a dashboard.
func TestWriteRuntimePromParsesStrict(t *testing.T) {
	var sb strings.Builder
	if err := WriteRuntimeProm(&sb); err != nil {
		t.Fatal(err)
	}
	ms, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("runtime rows do not parse strictly: %v\n%s", err, sb.String())
	}
	byName := map[string][]Metric{}
	for _, m := range ms {
		byName[m.Name] = append(byName[m.Name], m)
	}
	for _, name := range []string{
		"noc_go_goroutines",
		"noc_go_heap_objects_bytes",
		"noc_go_memory_total_bytes",
		"noc_go_gc_cycles_total",
		"noc_go_gc_pause_seconds_count",
		"noc_build_info",
	} {
		if len(byName[name]) == 0 {
			t.Errorf("runtime exposition lacks %s", name)
		}
	}
	if got := byName["noc_go_goroutines"]; len(got) > 0 && got[0].Value < 1 {
		t.Errorf("noc_go_goroutines = %v; the test itself is a goroutine", got[0].Value)
	}
	if got := byName["noc_go_heap_objects_bytes"]; len(got) > 0 && got[0].Value <= 0 {
		t.Errorf("noc_go_heap_objects_bytes = %v", got[0].Value)
	}
	// The build-info gauge is the constant-1, labels-carry-the-data idiom.
	if got := byName["noc_build_info"]; len(got) > 0 {
		bi := got[0]
		if bi.Value != 1 {
			t.Errorf("noc_build_info = %v, want the constant 1", bi.Value)
		}
		if bi.Labels["go_version"] == "" || bi.Labels["module"] == "" {
			t.Errorf("noc_build_info labels incomplete: %v", bi.Labels)
		}
	}
	// Pause quantiles must be finite and ordered labels present.
	quantiles := 0
	for _, m := range byName["noc_go_gc_pause_seconds"] {
		if m.Labels["quantile"] == "" {
			t.Errorf("pause summary row lacks a quantile label: %+v", m)
		}
		if m.Value < 0 {
			t.Errorf("negative GC pause %v", m.Value)
		}
		quantiles++
	}
	if c := byName["noc_go_gc_pause_seconds_count"]; len(c) > 0 && c[0].Value > 0 && quantiles == 0 {
		t.Error("GC has run but no pause quantiles were rendered")
	}
}

// TestWriteArtifactPromParsesStrict renders the artifact-cache rows
// through the strict scraper and checks the counters track the cache:
// a Get that builds is a miss, a repeat is a hit, and the entry gauge
// counts residents.
func TestWriteArtifactPromParsesStrict(t *testing.T) {
	for i := 0; i < 2; i++ { // first Get misses, second hits
		if _, err := artifactGet("serve-test-key"); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := WriteArtifactProm(&sb); err != nil {
		t.Fatal(err)
	}
	ms, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("artifact rows do not parse strictly: %v\n%s", err, sb.String())
	}
	byName := map[string]float64{}
	for _, m := range ms {
		byName[m.Name] = m.Value
	}
	if byName["noc_artifact_cache_misses_total"] < 1 {
		t.Errorf("misses = %v after a building Get", byName["noc_artifact_cache_misses_total"])
	}
	if byName["noc_artifact_cache_hits_total"] < 1 {
		t.Errorf("hits = %v after a repeat Get", byName["noc_artifact_cache_hits_total"])
	}
	if byName["noc_artifact_cache_entries"] < 1 {
		t.Errorf("entries = %v with a resident artifact", byName["noc_artifact_cache_entries"])
	}
}

// TestMetricsEndpointIncludesRuntimeRows scrapes a live /metrics and
// checks the process rows ride along with the simulation rows on the same
// strict parse — the whole response is one valid exposition.
func TestMetricsEndpointIncludesRuntimeRows(t *testing.T) {
	n := newServedNet(t, 0.3, 0, 11)
	srv, err := Start(sampled(t, n, sampler.Config{Every: 64}), Config{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	n.Run(128)

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ms, err := ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics with runtime rows does not parse: %v", err)
	}
	sawSim, sawRuntime, sawBuild, sawArtifact := false, false, false, false
	for _, m := range ms {
		switch m.Name {
		case "noc_cycle":
			sawSim = true
		case "noc_go_goroutines":
			sawRuntime = true
		case "noc_build_info":
			sawBuild = true
		case "noc_artifact_cache_entries":
			sawArtifact = true
		}
	}
	if !sawSim || !sawRuntime || !sawBuild || !sawArtifact {
		t.Fatalf("scrape incomplete: sim=%v runtime=%v build=%v artifact=%v", sawSim, sawRuntime, sawBuild, sawArtifact)
	}
}
