// Command benchjson converts `go test -bench -benchmem` output on stdin
// into the benchmark regression record BENCH_cycles.json. For the
// cycle-loop microbenchmarks (one op = one simulated network cycle) it
// also derives simulated cycles per second, the engine's headline speed
// metric. `make bench` wires it up.
//
//	go test -run '^$' -bench NetworkCycle -benchmem . | benchjson -o BENCH_cycles.json
//
// With -against it is the regression gate instead: parsed results are
// compared to a previously written record and the process exits non-zero
// when ns/op or allocs/op regress beyond -max-regress percent. `make ci`
// runs a short pass against the committed snapshot.
//
//	go test -run '^$' -bench NetworkCycle -benchmem . | benchjson -against BENCH_cycles.json -max-regress 10
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Procs is the GOMAXPROCS the benchmark ran at (go test's -N name
	// suffix; 1 when absent). The shard benchmarks run at several widths,
	// so (name, procs) is the record key.
	Procs       int     `json:"procs,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// CyclesPerSec is simulated cycles per wall-clock second, only set
	// for benchmarks whose op is one network cycle (NetworkCycle*).
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	// PointsPerSec is campaign throughput in sweep measurements per
	// wall-clock second, reported by the SweepThroughput benchmarks via
	// b.ReportMetric (a custom "points/sec" column). Higher is better, so
	// the gate flags drops, not rises.
	PointsPerSec float64 `json:"points_per_sec,omitempty"`
}

// Record is the top-level BENCH_cycles.json document.
type Record struct {
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Benchmarks  []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH_cycles.json", "output JSON path")
	against := flag.String("against", "", "baseline record to compare against (regression gate)")
	maxRegress := flag.Float64("max-regress", 10, "allowed ns/op and allocs/op regression, percent")
	flag.Parse()
	outSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "o" {
			outSet = true
		}
	})

	rec := Record{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass through so the run stays visible
		r, ok := parseLine(line)
		if !ok {
			continue
		}
		rec.Benchmarks = append(rec.Benchmarks, r)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(rec.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin (pipe `go test -bench -benchmem` output)"))
	}
	if *against != "" {
		regressions, err := compare(*against, rec.Benchmarks, *maxRegress)
		if err != nil {
			fatal(err)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) beyond %.0f%%\n", regressions, *maxRegress)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regressions beyond %.0f%% across %d benchmarks\n",
			*maxRegress, len(rec.Benchmarks))
		if !outSet {
			return // compare mode only rewrites the record when asked
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rec.Benchmarks), *out)
}

// compare checks every new result against the baseline record and reports
// the number of regressions. A result matches its baseline by (name,
// procs), falling back to a name-only match so records written before
// multi-procs runs (or at another machine's width) still gate. New ns/op
// may exceed old by at most maxPct percent; allocs/op likewise, except
// that any allocation appearing in a previously allocation-free benchmark
// is a regression outright (0 * 1.10 is still 0). Serve, FlightRec, and
// LatencyObs benchmarks gate bytes/op too: their contract is a constant-byte
// (near-zero) steady state, and a byte-count regression there means the
// lazy-snapshot path (or the recorder's ring append) started copying per
// cycle — which allocs/op alone would miss when the copies amortize below
// one allocation per op.
func compare(path string, results []Result, maxPct float64) (regressions int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var base Record
	if err := json.Unmarshal(data, &base); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	find := func(name string, procs int) *Result {
		var byName *Result
		for i := range base.Benchmarks {
			b := &base.Benchmarks[i]
			if b.Name != name {
				continue
			}
			bp := b.Procs
			if bp == 0 {
				bp = 1
			}
			if bp == procs {
				return b
			}
			if byName == nil {
				byName = b
			}
		}
		return byName
	}
	for _, r := range results {
		old := find(r.Name, r.Procs)
		if old == nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s-%d: new benchmark, no baseline\n", r.Name, r.Procs)
			continue
		}
		limit := old.NsPerOp * (1 + maxPct/100)
		if r.NsPerOp > limit {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s-%d: %.0f ns/op vs baseline %.0f (+%.1f%%, limit %.0f%%)\n",
				r.Name, r.Procs, r.NsPerOp, old.NsPerOp, 100*(r.NsPerOp/old.NsPerOp-1), maxPct)
			regressions++
		}
		allocLimit := int64(float64(old.AllocsPerOp) * (1 + maxPct/100))
		if r.AllocsPerOp > allocLimit {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s-%d: %d allocs/op vs baseline %d\n",
				r.Name, r.Procs, r.AllocsPerOp, old.AllocsPerOp)
			regressions++
		}
		if strings.Contains(r.Name, "Serve") || strings.Contains(r.Name, "FlightRec") ||
			strings.Contains(r.Name, "LatencyObs") {
			byteLimit := int64(float64(old.BytesPerOp) * (1 + maxPct/100))
			if r.BytesPerOp > byteLimit {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s-%d: %d B/op vs baseline %d\n",
					r.Name, r.Procs, r.BytesPerOp, old.BytesPerOp)
				regressions++
			}
		}
		// Campaign throughput gates downward: points/sec below the
		// baseline by more than maxPct means warm forks stopped paying.
		if old.PointsPerSec > 0 && r.PointsPerSec > 0 {
			floor := old.PointsPerSec * (1 - maxPct/100)
			if r.PointsPerSec < floor {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s-%d: %.2f points/sec vs baseline %.2f (-%.1f%%, limit %.0f%%)\n",
					r.Name, r.Procs, r.PointsPerSec, old.PointsPerSec, 100*(1-r.PointsPerSec/old.PointsPerSec), maxPct)
				regressions++
			}
		}
	}
	return regressions, nil
}

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkNetworkCycle-8   233782   9793 ns/op   0 B/op   0 allocs/op
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	procs := 1
	// Split off the -<procs> suffix go test appends (absent at GOMAXPROCS=1).
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
			procs = p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters, Procs: procs}
	for i := 2; i+1 < len(fields); i += 2 {
		v := fields[i]
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp, _ = strconv.ParseFloat(v, 64)
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(v, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(v, 10, 64)
		case "points/sec":
			r.PointsPerSec, _ = strconv.ParseFloat(v, 64)
		}
	}
	if r.NsPerOp == 0 {
		return Result{}, false
	}
	if strings.HasPrefix(name, "NetworkCycle") {
		r.CyclesPerSec = 1e9 / r.NsPerOp
	}
	return r, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
