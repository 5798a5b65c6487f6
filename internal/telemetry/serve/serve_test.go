package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/flit"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/telemetry/sampler"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// newServedNet builds the standard test network — 4x4 folded torus with a
// telemetry probe — under uniform Bernoulli load. stopAt 0 means the
// generators never stop; opts adjust the network config before the build.
func newServedNet(t testing.TB, rate float64, stopAt, seed int64, opts ...func(*network.Config)) *network.Network {
	t.Helper()
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.Config{
		Topo:   topo,
		Router: router.DefaultConfig(0),
		Seed:   seed,
		Probe:  telemetry.New(telemetry.Config{SampleEvery: 64}),
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	n, err := network.New(cfg)
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

// sampled attaches the network's health sampler, which every collector
// subscribes to.
func sampled(t testing.TB, n *network.Network, cfg sampler.Config) *sampler.Sampler {
	t.Helper()
	smp, err := sampler.Attach(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return smp
}

// TestAttachCollectorRequiresProbe: a collector subscribes to the health
// sampler, which refuses a network without the probe snapshots copy.
func TestAttachCollectorRequiresProbe(t *testing.T) {
	topo, err := topology.NewFoldedTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.New(network.Config{Topo: topo, Router: router.DefaultConfig(0), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sampler.Attach(n, sampler.Config{}); err == nil ||
		!strings.Contains(err.Error(), "no telemetry probe") {
		t.Fatalf("sampler.Attach without probe: err = %v, want probe error", err)
	}
}

func TestCollectorPublishesImmutableSnapshots(t *testing.T) {
	n := newServedNet(t, 0.3, 0, 2)
	col := AttachCollector(sampled(t, n, sampler.Config{Every: 64}), Config{})
	if col.Latest() != nil {
		t.Fatal("snapshot published before the first cycle")
	}
	n.Run(512)
	first := col.Latest()
	if first == nil {
		t.Fatal("no snapshot after 512 cycles with Every=64")
	}
	if first.Cycle%64 != 0 {
		t.Fatalf("snapshot cycle %d not on the sampling interval", first.Cycle)
	}
	if first.Generated == 0 || first.DeliveredFlits == 0 {
		t.Fatalf("snapshot missing traffic: %+v", first)
	}
	if len(first.Routers) != 16 {
		t.Fatalf("snapshot has %d routers, want 16", len(first.Routers))
	}
	if len(first.Links) != n.NumLinks() {
		t.Fatalf("snapshot has %d links, want %d", len(first.Links), n.NumLinks())
	}
	if len(first.Heatmap) != 4 || len(first.Heatmap[0]) != 4 {
		t.Fatalf("heatmap shape wrong: %v", first.Heatmap)
	}
	if len(first.Latency) < 2 || first.Latency[0].Name != "packet" || first.Latency[1].Name != "network" {
		t.Fatalf("latency series wrong: %+v", first.Latency)
	}
	if len(first.Series) == 0 {
		t.Fatal("snapshot carries no series rows despite SampleEvery")
	}
	if !first.Healthy || len(first.Health) != 3 {
		t.Fatalf("healthy run published unhealthy snapshot: %+v", first.Health)
	}

	// Published snapshots are immutable: running further publishes a new
	// pointer and leaves the old copy untouched.
	cyc, flits := first.Cycle, first.DeliveredFlits
	n.Run(512)
	second := col.Latest()
	if second == first {
		t.Fatal("collector republished the same snapshot pointer")
	}
	if first.Cycle != cyc || first.DeliveredFlits != flits {
		t.Fatal("published snapshot mutated by later samples")
	}
	if second.Cycle <= first.Cycle {
		t.Fatalf("snapshot cycle went backwards: %d -> %d", first.Cycle, second.Cycle)
	}
}

func TestEndpoints(t *testing.T) {
	n := newServedNet(t, 0.3, 0, 3)
	srv, err := Start(sampled(t, n, sampler.Config{Every: 64}), Config{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Before the first sample every snapshot-backed endpoint is 503.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/metrics before first sample: %d, want 503", resp.StatusCode)
	}

	n.Run(512)
	snap := srv.Collector().Latest()
	if snap == nil {
		t.Fatal("no snapshot after run")
	}

	t.Run("index", func(t *testing.T) {
		resp, err := http.Get(base + "/")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || !strings.Contains(sb.String(), "observability") {
			t.Fatalf("index: %d %q", resp.StatusCode, sb.String())
		}
	})

	t.Run("metrics", func(t *testing.T) {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("/metrics: %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Fatalf("/metrics content type %q", ct)
		}
		ms, err := ParseText(resp.Body)
		if err != nil {
			t.Fatalf("/metrics does not parse: %v", err)
		}
		byKey := map[string]float64{}
		for _, m := range ms {
			byKey[m.Key()] = m.Value
		}
		if byKey["noc_cycle"] != float64(snap.Cycle) {
			t.Fatalf("noc_cycle = %v, want %d", byKey["noc_cycle"], snap.Cycle)
		}
		if byKey["noc_delivered_flits_total"] <= 0 {
			t.Fatal("noc_delivered_flits_total not positive")
		}
		if byKey["noc_healthy"] != 1 {
			t.Fatalf("noc_healthy = %v on a healthy run", byKey["noc_healthy"])
		}
		if _, ok := byKey[`noc_router_ejected_flits_total{router="0"}`]; !ok {
			t.Fatal("per-router counters missing")
		}
		// Route-table counters: on a fault-free 4x4 torus the route table
		// serves every route, so a 512-cycle run at rate 0.3 hits and
		// never misses. The rows come from the last sample, so they may
		// lag the network's live counters but never exceed them.
		hits, misses := n.RouteTableStats()
		if v, ok := byKey["noc_route_table_misses_total"]; !ok || v != 0 || misses != 0 {
			t.Fatalf("noc_route_table_misses_total = %v (present %v), live misses %d; want 0 on a fault-free run", v, ok, misses)
		}
		if v := byKey["noc_route_table_hits_total"]; v <= 0 || v > float64(hits) {
			t.Fatalf("noc_route_table_hits_total = %v, want in (0, %d]", v, hits)
		}
		// Artifact-cache rows are scrape-time process metrics; they must
		// be present (and parse strictly) even when the cache is idle.
		for _, name := range []string{"noc_artifact_cache_hits_total", "noc_artifact_cache_misses_total", "noc_artifact_cache_entries"} {
			if _, ok := byKey[name]; !ok {
				t.Fatalf("%s missing from /metrics", name)
			}
		}
		utils := 0
		for _, m := range ms {
			if m.Name == "noc_link_util" {
				utils++
				if m.Value < 0 || m.Value > 1 {
					t.Fatalf("noc_link_util %v outside [0,1]: %+v", m.Value, m)
				}
			}
		}
		if utils != n.NumLinks() {
			t.Fatalf("%d noc_link_util samples, want %d", utils, n.NumLinks())
		}
	})

	t.Run("snapshot", func(t *testing.T) {
		resp, err := http.Get(base + "/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("/snapshot: %d", resp.StatusCode)
		}
		var got Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatalf("/snapshot does not decode: %v", err)
		}
		if got.Cycle != snap.Cycle || got.DeliveredFlits != snap.DeliveredFlits {
			t.Fatalf("served snapshot differs: cycle %d vs %d", got.Cycle, snap.Cycle)
		}
		if len(got.Heatmap) != 4 {
			t.Fatalf("served heatmap shape wrong: %v", got.Heatmap)
		}
	})

	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("/healthz on a healthy run: %d", resp.StatusCode)
		}
		var body struct {
			Status   string `json:"status"`
			Verdicts []struct {
				Detector string `json:"detector"`
				Healthy  bool   `json:"healthy"`
			} `json:"verdicts"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Status != "ok" || len(body.Verdicts) != 3 {
			t.Fatalf("/healthz body: %+v", body)
		}
	})

	t.Run("not-found", func(t *testing.T) {
		resp, err := http.Get(base + "/bogus")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("/bogus: %d, want 404", resp.StatusCode)
		}
	})
}

// TestRouteTableCountersAfterLinkKill pins the other half of the
// route-counter contract: once a watchdog declares a link dead, the
// fault map is nonempty and every route is computed around it, so
// /metrics must show misses as well as the hits taken before the fault.
func TestRouteTableCountersAfterLinkKill(t *testing.T) {
	n := newServedNet(t, 0.3, 0, 7, func(cfg *network.Config) { cfg.Watchdog = 64 })
	inj, err := fault.NewInjector(n, []fault.Event{
		{Kind: fault.LinkKill, At: 200, Link: 9, From: -1, Tile: -1, VC: -1},
	}, 0, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach()
	col := AttachCollector(sampled(t, n, sampler.Config{Every: 64}), Config{})
	n.Run(1024)
	if n.FaultMap().Empty() {
		t.Fatal("link kill was never detected; the faulted route path is untested")
	}
	var sb strings.Builder
	if err := WriteProm(&sb, col.Latest()); err != nil {
		t.Fatal(err)
	}
	ms, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, m := range ms {
		byKey[m.Key()] = m.Value
	}
	if byKey["noc_route_table_misses_total"] <= 0 {
		t.Fatal("noc_route_table_misses_total not positive after a link kill")
	}
	if byKey["noc_route_table_hits_total"] <= 0 {
		t.Fatal("noc_route_table_hits_total not positive: pre-fault routes must hit")
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestEventsSSEStream(t *testing.T) {
	n := newServedNet(t, 0.3, 0, 4)
	srv, err := Start(sampled(t, n, sampler.Config{Every: 64}), Config{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
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
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/events content type %q", ct)
	}

	// Keep sampling in the background until the stream delivers a frame;
	// the subscriber registers shortly after the prelude, so a bounded
	// retry loop absorbs the race.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			select {
			case <-done:
				return
			default:
			}
			n.Run(64)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	defer wg.Wait()
	defer close(done)

	sc := bufio.NewScanner(resp.Body)
	sawEvent, sawData := false, false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: sample" {
			sawEvent = true
		}
		if sawEvent && strings.HasPrefix(line, "data: ") {
			var row struct {
				Cycle int64 `json:"cycle"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &row); err != nil {
				t.Fatalf("SSE data frame does not decode: %v (%q)", err, line)
			}
			if row.Cycle < 0 {
				t.Fatalf("SSE sample row has no cycle: %q", line)
			}
			sawData = true
			break
		}
	}
	if !sawEvent || !sawData {
		t.Fatalf("no sample frame on /events (event=%v data=%v, scan err %v)", sawEvent, sawData, sc.Err())
	}
}

// TestPromQuantilesMatchHist is the satellite property test: the quantile
// values /metrics exports for every latency series are exactly the values
// stats.Hist.Quantile reports — rendered through LatencyFrom and WriteProm
// and recovered through the strict scraper, with no drift in between.
func TestPromQuantilesMatchHist(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		h := stats.NewHist(64)
		samples := rng.Intn(200) // sometimes zero
		for i := 0; i < samples; i++ {
			// A spread of in-range and overflow values.
			h.Add(int64(rng.Intn(150)))
		}
		name := fmt.Sprintf("trial%d", trial)
		snap := &Snapshot{Latency: []LatencySnap{LatencyFrom(name, -1, h)}}
		var sb strings.Builder
		if err := WriteProm(&sb, snap); err != nil {
			t.Fatal(err)
		}
		ms, err := ParseText(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("trial %d: exposition does not parse: %v", trial, err)
		}
		byKey := map[string]float64{}
		for _, m := range ms {
			byKey[m.Key()] = m.Value
		}
		for _, q := range ExportedQuantiles {
			key := fmt.Sprintf(`noc_latency_cycles{quantile="%g",series=%q}`, q, name)
			got, ok := byKey[key]
			if !ok {
				t.Fatalf("trial %d: %s missing from exposition", trial, key)
			}
			if want := float64(h.Quantile(q)); got != want {
				t.Fatalf("trial %d: %s = %v, want Hist.Quantile(%g) = %v", trial, key, got, q, want)
			}
		}
		if got := byKey[fmt.Sprintf(`noc_latency_cycles_sum{series=%q}`, name)]; got != float64(h.Sum()) {
			t.Fatalf("trial %d: summary sum %v, want %d", trial, got, h.Sum())
		}
		if got := byKey[fmt.Sprintf(`noc_latency_cycles_count{series=%q}`, name)]; got != float64(h.Count()) {
			t.Fatalf("trial %d: summary count %v, want %d", trial, got, h.Count())
		}
	}
}

func TestParseTextStrictness(t *testing.T) {
	cases := []struct {
		name, in string
		ok       bool
	}{
		{"empty", "", false},
		{"comment only", "# HELP x y\n# TYPE x gauge\n", false},
		{"malformed directive", "# NONSENSE foo\nx 1\n", false},
		{"unknown type", "# TYPE x flavor\nx 1\n", false},
		{"bad value", "x abc\n", false},
		{"bad name", "9bad 1\n", false},
		{"unquoted label", "# HELP x y\n# TYPE x gauge\nx{l=raw} 1\n", false},
		{"no directives", "x 1\n", false},
		{"help only", "# HELP x y\nx 1\n", false},
		{"type only", "# TYPE x gauge\nx 1\n", false},
		{"empty help text", "# HELP x\n# TYPE x gauge\nx 1\n", false},
		{"simple", "# HELP x y\n# TYPE x gauge\nx 1\n", true},
		{"labels", "# HELP x y\n# TYPE x gauge\n" + `x{a="1",b="two"} 3.5` + "\n", true},
		{"comma in label", "# HELP x y\n# TYPE x gauge\n" + `x{l="a,b"} 1` + "\n", true},
		{"full directives", "# HELP x help text\n# TYPE x counter\nx 2\n", true},
		{"summary suffixes", "# HELP x y\n# TYPE x summary\n" + `x{quantile="0.5"} 1` + "\nx_sum 2\nx_count 3\n", true},
		{"summary bucket rejected", "# HELP x y\n# TYPE x summary\nx_bucket 1\n", false},
		{"histogram suffixes", "# HELP x y\n# TYPE x histogram\n" + `x_bucket{le="1"} 1` + "\nx_sum 2\nx_count 3\n", true},
		{"undirected sibling", "# HELP x y\n# TYPE x gauge\nx 1\ny 2\n", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms, err := ParseText(strings.NewReader(tc.in))
			if tc.ok && err != nil {
				t.Fatalf("ParseText(%q) = %v, want ok", tc.in, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("ParseText(%q) = %+v, want error", tc.in, ms)
			}
		})
	}

	ms, err := ParseText(strings.NewReader("# HELP x y\n# TYPE x gauge\n" + `x{l="a,b",m="c"} 4` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Labels["l"] != "a,b" || ms[0].Labels["m"] != "c" || ms[0].Value != 4 {
		t.Fatalf("label parsing wrong: %+v", ms)
	}
}
