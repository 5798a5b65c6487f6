// Package obs wires the shared observability flags (-metrics,
// -metrics-every, -metrics-out, -tracefile-out, -serve, -flightrec,
// -flows, -pprof) into the command binaries: it builds the telemetry
// probe the flags ask for, attaches the observability stack (per-flow
// observatory, health sampler, live service, flight recorder) in one
// call, starts and stops CPU profiling, and exports the collected
// artifacts after a run.
package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/latency"
	"repro/internal/telemetry/sampler"
	"repro/internal/telemetry/serve"
)

// Flags holds the parsed observability options.
type Flags struct {
	Metrics      bool
	MetricsEvery int64
	MetricsOut   string
	TraceOut     string
	Serve        string
	Pprof        string

	FlightRec       bool
	FlightRecCycles int
	FlightRecDir    string

	Flows    string
	SLO      string
	FlowsOut string
}

// Register installs the observability flags on the default flag set.
func Register() *Flags {
	f := &Flags{}
	flag.BoolVar(&f.Metrics, "metrics", false, "attach telemetry probes and print the metrics table after the run")
	flag.Int64Var(&f.MetricsEvery, "metrics-every", 0, "telemetry time-series sampling interval, cycles (0 disables the series); also the health-sampling cadence of -serve snapshots and detectors and -flightrec dumps (0 = 256)")
	flag.StringVar(&f.MetricsOut, "metrics-out", "", "write per-component telemetry counters and the sampled series as CSV to this file (requires -metrics)")
	flag.StringVar(&f.TraceOut, "tracefile-out", "", "record per-packet lifecycle events and write Chrome trace-event JSON (chrome://tracing) to this file (requires -metrics)")
	flag.StringVar(&f.Serve, "serve", "", "serve live observability over HTTP on this address for the duration of the run (/metrics, /snapshot, /healthz, /events, /debug/flightrec); e.g. :8080 or 127.0.0.1:0")
	flag.StringVar(&f.Pprof, "pprof", "", "write a CPU profile of the run to this file")
	flag.BoolVar(&f.FlightRec, "flightrec", false, "attach the flight recorder: a ring of per-cycle event deltas plus periodic keyframes, dumped for nocpost when a health detector fires, on SIGQUIT, on panic, or via /debug/flightrec")
	flag.IntVar(&f.FlightRecCycles, "flightrec-cycles", 0, fmt.Sprintf("flight-recorder ring capacity in cycles (default %d; requires -flightrec)", flightrec.DefaultWindow))
	flag.StringVar(&f.FlightRecDir, "flightrec-dir", "", "directory flight-recorder dumps are written to (default .; requires -flightrec)")
	flag.StringVar(&f.Flows, "flows", "", "attach the per-flow latency observatory with this flow classification: pair, srcrow, srccol, or class")
	flag.StringVar(&f.SLO, "slo", "", "';'-separated per-flow latency objectives with multi-window burn-rate alerting, e.g. \"p99<=40@flows\" (requires -flows)")
	flag.StringVar(&f.FlowsOut, "flows-out", "", "write the per-flow latency decomposition CSV to this file after the run (requires -flows)")
	return f
}

// Enabled reports whether any flag requires a telemetry probe.
func (f *Flags) Enabled() bool {
	return f.Metrics || f.MetricsEvery > 0 || f.MetricsOut != "" || f.TraceOut != "" || f.Serve != "" || f.FlightRec || f.Flows != ""
}

// Validate rejects inconsistent observability flags, mirroring the strict
// validation the commands apply to their fault flags: output files
// without the flag that enables their collection are an error, not a
// silent no-op.
func (f *Flags) Validate() error {
	if f.MetricsEvery < 0 {
		return fmt.Errorf("-metrics-every must be >= 0 (got %d)", f.MetricsEvery)
	}
	if f.MetricsOut != "" && !f.Metrics {
		return fmt.Errorf("-metrics-out requires -metrics")
	}
	if f.TraceOut != "" && !f.Metrics {
		return fmt.Errorf("-tracefile-out requires -metrics")
	}
	if f.FlightRecCycles != 0 && !f.FlightRec {
		return fmt.Errorf("-flightrec-cycles requires -flightrec")
	}
	if f.FlightRecCycles < 0 {
		return fmt.Errorf("-flightrec-cycles must be >= 0 (got %d)", f.FlightRecCycles)
	}
	if f.FlightRecCycles > flightrec.MaxWindow {
		return fmt.Errorf("-flightrec-cycles must be <= %d (got %d)", flightrec.MaxWindow, f.FlightRecCycles)
	}
	if f.FlightRecDir != "" && !f.FlightRec {
		return fmt.Errorf("-flightrec-dir requires -flightrec")
	}
	if f.SLO != "" && f.Flows == "" {
		return fmt.Errorf("-slo requires -flows")
	}
	if f.FlowsOut != "" && f.Flows == "" {
		return fmt.Errorf("-flows-out requires -flows")
	}
	switch f.Flows {
	case "", latency.FlowPair, latency.FlowSrcRow, latency.FlowSrcCol, latency.FlowClass:
	default:
		return fmt.Errorf("-flows must be one of %s, %s, %s, %s (got %q)",
			latency.FlowPair, latency.FlowSrcRow, latency.FlowSrcCol, latency.FlowClass, f.Flows)
	}
	if _, err := latency.ParseSLO(f.SLO); err != nil {
		return fmt.Errorf("-slo: %v", err)
	}
	return nil
}

// Stack is the observability Flags.Attach wired onto one network.
type Stack struct {
	f     *Flags
	probe *telemetry.Probe
	flows *latency.Observatory
	srv   *serve.Server
	rec   *flightrec.Recorder
	stop  func() // releases the SIGQUIT handler
}

// Attach wires the observability the flags ask for onto n, in the one
// order the types allow: the per-flow observatory (-flows), whose SLO
// tick runs before the health sampler so each sample sees the cycle's
// fresh burn verdicts; the sampler, at the -metrics-every cadence
// (default sampler.DefaultEvery), whenever -serve or -flightrec needs
// one; the live service's collector (-serve); and the flight recorder
// (-flightrec) with its crash hook, a SIGQUIT handler for dump-on-demand,
// and /debug/flightrec when the live service is up. id is the identity
// core hands the run's OnNetwork hook; the recorder stamps its JSON and
// hash on dumps and keyframes, exactly as core stamps its own
// checkpoints. Call it before the network's first cycle, and Close the
// stack when the run ends.
func (f *Flags) Attach(n *network.Network, id core.SimSpec) (*Stack, error) {
	s := &Stack{f: f, probe: n.Probe()}
	if f.Flows != "" {
		o, err := latency.Attach(n, latency.Config{Flows: f.Flows, SLO: f.SLO})
		if err != nil {
			return nil, err
		}
		s.flows = o
	}
	if f.Serve == "" && !f.FlightRec {
		return s, nil
	}
	smp, err := sampler.Attach(n, sampler.Config{Every: f.MetricsEvery})
	if err != nil {
		return nil, err
	}
	if f.Serve != "" {
		if s.srv, err = serve.Start(smp, serve.Config{Flows: s.flows}, f.Serve); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "serving live observability on http://%s\n", s.srv.Addr())
	}
	if f.FlightRec {
		spec, err := id.JSON()
		var hash uint64
		if err == nil {
			hash, err = id.Hash()
		}
		if err != nil {
			s.Close()
			return nil, err
		}
		s.rec = flightrec.Attach(smp, flightrec.Config{
			Window:     f.FlightRecCycles,
			Dir:        f.FlightRecDir,
			ConfigHash: hash,
			SpecJSON:   spec,
			SpecKind:   id.Kind,
		})
		if s.srv != nil {
			s.srv.SetDumper(s.rec)
		}
		if s.flows != nil {
			// SLO burns land in the recorder's health log and trigger
			// dumps whose window includes the burn cycle.
			s.flows.SetBurnSink(s.rec)
		}
		s.stop = s.notifySIGQUIT()
	}
	return s, nil
}

// notifySIGQUIT dumps the recorder on every SIGQUIT until the returned
// function releases the handler.
func (s *Stack) notifySIGQUIT() func() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-sigc:
				if path, err := s.rec.TriggerDump("sigquit"); err != nil {
					fmt.Fprintf(os.Stderr, "flightrec: SIGQUIT dump failed: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "flightrec: dump written to %s\n", path)
				}
			}
		}
	}()
	return func() {
		signal.Stop(sigc)
		close(done)
	}
}

// Close ends the stack's run: it releases the SIGQUIT handler, logs
// where the flight recorder's dumps went (and any write error) to
// stderr, and shuts the live service down. A nil stack is a no-op.
func (s *Stack) Close() {
	if s == nil {
		return
	}
	if s.stop != nil {
		s.stop()
	}
	if s.rec != nil {
		if err := s.rec.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "flightrec: dump error: %v\n", err)
		}
		for _, path := range s.rec.Dumps() {
			fmt.Fprintf(os.Stderr, "flightrec: dump written to %s\n", path)
		}
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

// HeatmapProbe returns a counters-only probe (no series, no tracing) for
// commands that want the telemetry heatmap without the other flags.
func HeatmapProbe() *telemetry.Probe { return telemetry.New(telemetry.Config{}) }

// NewProbe builds the probe the flags describe, or nil when telemetry is
// off (the network's zero-overhead path).
func (f *Flags) NewProbe() *telemetry.Probe {
	if !f.Enabled() {
		return nil
	}
	return telemetry.New(telemetry.Config{
		SampleEvery: f.MetricsEvery,
		Trace:       f.TraceOut != "",
	})
}

// StartPprof begins CPU profiling when -pprof was given. The returned stop
// function is safe to call unconditionally.
func (f *Flags) StartPprof() (stop func(), err error) {
	if f.Pprof == "" {
		return func() {}, nil
	}
	out, err := os.Create(f.Pprof)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		out.Close()
	}, nil
}

// Emit writes every artifact the flags asked for from the stack's
// network: the per-flow latency CSV, the text table and optional heatmap
// to w, the CSV metrics and the Chrome trace to their files. A network
// without a probe emits only the per-flow CSV. Commands whose stdout is
// machine-readable (nocsweep's CSV) pass stderr as w.
func (s *Stack) Emit(w io.Writer, heatmap bool) error {
	f, p := s.f, s.probe
	if f.FlowsOut != "" && s.flows != nil {
		if err := writeFile(f.FlowsOut, s.flows.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(w, "per-flow latency written to %s\n", f.FlowsOut)
	}
	if p == nil {
		return nil
	}
	if f.Metrics {
		fmt.Fprint(w, p.MetricsTable())
	}
	if heatmap {
		fmt.Fprint(w, p.Heatmap())
	}
	if f.MetricsOut != "" {
		err := writeFile(f.MetricsOut, func(out io.Writer) error {
			if err := p.WriteMetricsCSV(out); err != nil || s.flows == nil {
				return err
			}
			return s.flows.WriteCSV(out)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "telemetry metrics written to %s\n", f.MetricsOut)
	}
	if f.TraceOut != "" {
		if err := writeFile(f.TraceOut, p.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(w, "execution trace written to %s (load in chrome://tracing)\n", f.TraceOut)
	}
	return nil
}

// writeFile creates path, fills it with write, and closes it, reporting
// the first error.
func writeFile(path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
