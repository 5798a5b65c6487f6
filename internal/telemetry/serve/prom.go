package serve

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// WriteProm renders a snapshot in the Prometheus text exposition format
// (version 0.0.4): network totals, per-detector health gauges, per-router
// and per-link counters, and the latency histograms as summaries whose
// quantile values come from the same LatencyFrom path /snapshot serves.
func WriteProm(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)

	gauge := func(name, help string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	counter := func(name, help string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	f64 := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

	gauge("noc_cycle", "Current simulation cycle.")
	fmt.Fprintf(bw, "noc_cycle %d\n", s.Cycle)

	gauge("noc_healthy", "1 when every online detector is healthy.")
	fmt.Fprintf(bw, "noc_healthy %d\n", b2i(s.Healthy))
	gauge("noc_health", "Per-detector health (1 healthy, 0 tripped).")
	for _, v := range s.Health {
		fmt.Fprintf(bw, "noc_health{detector=%q} %d\n", v.Detector, b2i(v.Healthy))
	}

	gauge("noc_last_checkpoint_cycle", "Cycle of the newest durable checkpoint (-1 when none).")
	fmt.Fprintf(bw, "noc_last_checkpoint_cycle %d\n", s.LastCheckpointCycle)
	gauge("noc_checkpoint_age_cycles", "Cycles since the newest durable checkpoint.")
	fmt.Fprintf(bw, "noc_checkpoint_age_cycles %d\n", s.CheckpointAge)

	counter("noc_generated_packets_total", "Packets created by clients (offered load).")
	fmt.Fprintf(bw, "noc_generated_packets_total %d\n", s.Generated)
	counter("noc_injected_packets_total", "Packets whose head flit entered the network.")
	fmt.Fprintf(bw, "noc_injected_packets_total %d\n", s.InjectedPackets)
	counter("noc_delivered_packets_total", "Packets fully delivered to tiles.")
	fmt.Fprintf(bw, "noc_delivered_packets_total %d\n", s.DeliveredPackets)
	counter("noc_delivered_flits_total", "Flits of delivered packets.")
	fmt.Fprintf(bw, "noc_delivered_flits_total %d\n", s.DeliveredFlits)
	gauge("noc_throughput_flits_per_cycle", "Measured delivered flits per cycle.")
	fmt.Fprintf(bw, "noc_throughput_flits_per_cycle %s\n", f64(s.Throughput))

	gauge("noc_buffered_flits", "Flits buffered in routers at the snapshot instant.")
	fmt.Fprintf(bw, "noc_buffered_flits %d\n", s.BufOcc)
	gauge("noc_link_in_flight_flits", "Flits on the wires at the snapshot instant.")
	fmt.Fprintf(bw, "noc_link_in_flight_flits %d\n", s.LinkInFlight)

	counter("noc_route_table_hits_total", "Route lookups served from the route table.")
	fmt.Fprintf(bw, "noc_route_table_hits_total %d\n", s.RouteTableHits)
	counter("noc_route_table_misses_total", "Route lookups that ran the full route computation: routes too long for the table, or any route once a link is dead.")
	fmt.Fprintf(bw, "noc_route_table_misses_total %d\n", s.RouteTableMisses)

	gauge("noc_dead_links", "Channels declared dead by the watchdogs.")
	fmt.Fprintf(bw, "noc_dead_links %d\n", s.DeadLinks)
	counter("noc_faults_applied_total", "Fault-injector events that took effect.")
	fmt.Fprintf(bw, "noc_faults_applied_total %d\n", s.FaultsApplied)
	gauge("noc_over_unity_links", "Channels whose duty factor had to be clamped at 1.0 (accounting bug signal).")
	fmt.Fprintf(bw, "noc_over_unity_links %d\n", s.OverUnityLinks)

	type rc struct {
		name, help string
		get        func(r rsnapAlias) int64
	}
	routerCounters := []rc{
		{"noc_router_routed_total", "Route-field pops (one per packet per hop).", func(r rsnapAlias) int64 { return r.Routed }},
		{"noc_router_switch_moves_total", "Flits across the crossbar.", func(r rsnapAlias) int64 { return r.SwitchMoves }},
		{"noc_router_bypass_moves_total", "Reserved-VC flits through the bypass.", func(r rsnapAlias) int64 { return r.BypassMoves }},
		{"noc_router_arb_losses_total", "Switch requests that lost arbitration.", func(r rsnapAlias) int64 { return r.ArbLosses }},
		{"noc_router_credit_stalls_total", "Waits blocked on downstream credits/VCs.", func(r rsnapAlias) int64 { return r.CreditStalls }},
		{"noc_router_stage_stalls_total", "Waits blocked on an occupied staging buffer.", func(r rsnapAlias) int64 { return r.StageStalls }},
		{"noc_router_res_hits_total", "Reserved slots that carried their flow's flit.", func(r rsnapAlias) int64 { return r.ResHits }},
		{"noc_router_res_misses_total", "Reserved slots that went unclaimed.", func(r rsnapAlias) int64 { return r.ResMisses }},
		{"noc_router_injected_flits_total", "Flits accepted from the tile's injection port.", func(r rsnapAlias) int64 { return r.InjectedFlits }},
		{"noc_router_ejected_flits_total", "Flits delivered through the tile's output port.", func(r rsnapAlias) int64 { return r.EjectedFlits }},
		{"noc_router_delivered_flits_total", "Flits of fully reassembled packets.", func(r rsnapAlias) int64 { return r.DeliveredFlits }},
		{"noc_router_delivered_packets_total", "Fully reassembled packets.", func(r rsnapAlias) int64 { return r.DeliveredPackets }},
		{"noc_router_aborted_packets_total", "Partial packets discarded on abort tails.", func(r rsnapAlias) int64 { return r.AbortedPackets }},
	}
	for _, m := range routerCounters {
		counter(m.name, m.help)
		for _, r := range s.Routers {
			fmt.Fprintf(bw, "%s{router=\"%d\"} %d\n", m.name, r.ID, m.get(r))
		}
	}
	gauge("noc_router_mean_buf_occ", "Mean buffered flits across series samples.")
	for _, r := range s.Routers {
		fmt.Fprintf(bw, "noc_router_mean_buf_occ{router=\"%d\"} %s\n", r.ID, f64(r.MeanBufOcc))
	}

	counter("noc_link_flits_total", "Flits that entered the channel's wires.")
	for _, l := range s.Links {
		fmt.Fprintf(bw, "noc_link_flits_total%s %d\n", linkLabels(l.Index, l.From, l.To, l.Dir), l.Flits)
	}
	counter("noc_link_head_flits_total", "Head flits on the channel.")
	for _, l := range s.Links {
		fmt.Fprintf(bw, "noc_link_head_flits_total%s %d\n", linkLabels(l.Index, l.From, l.To, l.Dir), l.HeadFlits)
	}
	counter("noc_link_credits_total", "Credits returned upstream over the channel.")
	for _, l := range s.Links {
		fmt.Fprintf(bw, "noc_link_credits_total%s %d\n", linkLabels(l.Index, l.From, l.To, l.Dir), l.Credits)
	}
	gauge("noc_link_util", "Channel duty factor over the run so far (clamped at 1).")
	for _, l := range s.Links {
		fmt.Fprintf(bw, "noc_link_util%s %s\n", linkLabels(l.Index, l.From, l.To, l.Dir), f64(l.Util))
	}
	gauge("noc_link_dead", "1 when the watchdog declared the channel dead.")
	for _, l := range s.Links {
		fmt.Fprintf(bw, "noc_link_dead%s %d\n", linkLabels(l.Index, l.From, l.To, l.Dir), b2i(l.DeadAt >= 0))
	}

	fmt.Fprintf(bw, "# HELP noc_latency_cycles Latency in cycles, by series and quantile.\n# TYPE noc_latency_cycles summary\n")
	for _, ls := range s.Latency {
		for _, q := range ls.Quantiles {
			fmt.Fprintf(bw, "noc_latency_cycles{series=%q,quantile=%q} %d\n", ls.Name, f64(q.Q), q.V)
		}
		fmt.Fprintf(bw, "noc_latency_cycles_sum{series=%q} %d\n", ls.Name, ls.Sum)
		fmt.Fprintf(bw, "noc_latency_cycles_count{series=%q} %d\n", ls.Name, ls.Count)
	}
	gauge("noc_latency_overflowed", "1 when the series' samples escaped the histogram's exact bucket range.")
	for _, ls := range s.Latency {
		fmt.Fprintf(bw, "noc_latency_overflowed{series=%q} %d\n", ls.Name, b2i(ls.Overflowed))
	}

	// Per-flow observatory rows. Cardinality is bounded by the
	// observatory's MaxFlows top-by-count selection, and the flow set can
	// rotate between scrapes, so every row is a gauge.
	if len(s.Flows) > 0 {
		fmt.Fprintf(bw, "# HELP noc_flow_latency_cycles Per-flow end-to-end latency in cycles (log2-bucket quantiles).\n# TYPE noc_flow_latency_cycles summary\n")
		for _, fs := range s.Flows {
			sum := fs.QueueCycles + fs.PipelineCycles + fs.SerializationCycles + fs.ContentionCycles
			fmt.Fprintf(bw, "noc_flow_latency_cycles{flow=%q,quantile=\"0.5\"} %d\n", fs.Flow, fs.P50)
			fmt.Fprintf(bw, "noc_flow_latency_cycles{flow=%q,quantile=\"0.99\"} %d\n", fs.Flow, fs.P99)
			fmt.Fprintf(bw, "noc_flow_latency_cycles{flow=%q,quantile=\"1\"} %d\n", fs.Flow, fs.MaxCycles)
			fmt.Fprintf(bw, "noc_flow_latency_cycles_sum{flow=%q} %d\n", fs.Flow, sum)
			fmt.Fprintf(bw, "noc_flow_latency_cycles_count{flow=%q} %d\n", fs.Flow, fs.Count)
		}
		gauge("noc_flow_latency_overflowed", "1 when the flow saw latencies past the histogram's exact range.")
		for _, fs := range s.Flows {
			fmt.Fprintf(bw, "noc_flow_latency_overflowed{flow=%q} %d\n", fs.Flow, b2i(fs.Overflowed))
		}
		gauge("noc_flow_component_cycles", "Per-flow cumulative latency decomposition by cause; causes sum to the flow's total end-to-end cycles (contention is a signed residual).")
		for _, fs := range s.Flows {
			fmt.Fprintf(bw, "noc_flow_component_cycles{flow=%q,cause=\"queue\"} %d\n", fs.Flow, fs.QueueCycles)
			fmt.Fprintf(bw, "noc_flow_component_cycles{flow=%q,cause=\"pipeline\"} %d\n", fs.Flow, fs.PipelineCycles)
			fmt.Fprintf(bw, "noc_flow_component_cycles{flow=%q,cause=\"serialization\"} %d\n", fs.Flow, fs.SerializationCycles)
			fmt.Fprintf(bw, "noc_flow_component_cycles{flow=%q,cause=\"contention\"} %d\n", fs.Flow, fs.ContentionCycles)
		}
		gauge("noc_flow_zero_load_cycles", "Per-flow mean analytical zero-load latency T0 = H*t_r + L/b.")
		for _, fs := range s.Flows {
			fmt.Fprintf(bw, "noc_flow_zero_load_cycles{flow=%q} %s\n", fs.Flow, f64(fs.ZeroLoadCycles))
		}
		gauge("noc_flow_contention_factor", "Per-flow live contention factor T/T0 (mean network latency over zero-load).")
		for _, fs := range s.Flows {
			fmt.Fprintf(bw, "noc_flow_contention_factor{flow=%q} %s\n", fs.Flow, f64(fs.ContentionFactor))
		}
		gauge("noc_flow_saturated", "1 when the flow's contention factor crossed the saturation threshold.")
		for _, fs := range s.Flows {
			fmt.Fprintf(bw, "noc_flow_saturated{flow=%q} %d\n", fs.Flow, b2i(fs.Saturated))
		}
		gauge("noc_flow_mean_hops", "Per-flow mean hop count H.")
		for _, fs := range s.Flows {
			fmt.Fprintf(bw, "noc_flow_mean_hops{flow=%q} %s\n", fs.Flow, f64(fs.MeanHops))
		}
	}
	if len(s.SLO) > 0 {
		gauge("noc_slo_burning", "1 for each flow-objective pair currently burning its error budget.")
		for _, row := range s.SLO {
			fmt.Fprintf(bw, "noc_slo_burning{flow=%q,objective=%q} 1\n", row.Flow, row.Objective)
		}
		gauge("noc_slo_burn_rate", "Error-budget burn-rate multiple per burning flow-objective pair and window.")
		for _, row := range s.SLO {
			fmt.Fprintf(bw, "noc_slo_burn_rate{flow=%q,objective=%q,window=\"short\"} %s\n", row.Flow, row.Objective, f64(row.BurnShort))
			fmt.Fprintf(bw, "noc_slo_burn_rate{flow=%q,objective=%q,window=\"long\"} %s\n", row.Flow, row.Objective, f64(row.BurnLong))
		}
		gauge("noc_slo_bad_packets", "Cumulative packets over the objective's target per burning pair.")
		for _, row := range s.SLO {
			fmt.Fprintf(bw, "noc_slo_bad_packets{flow=%q,objective=%q} %d\n", row.Flow, row.Objective, row.Bad)
		}
	}
	return bw.Flush()
}

// rsnapAlias keeps the router-counter table's closure signatures short.
type rsnapAlias = telemetry.RouterSnap

func linkLabels(index, from, to int, dir string) string {
	return fmt.Sprintf("{link=\"%d\",from=\"%d\",to=\"%d\",dir=%q}", index, from, to, dir)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Metric is one parsed Prometheus sample line.
type Metric struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Key renders the metric's identity as name{k="v",...} with labels in
// sorted order, for test lookups.
func (m Metric) Key() string {
	if len(m.Labels) == 0 {
		return m.Name
	}
	keys := make([]string, 0, len(m.Labels))
	for k := range m.Labels {
		keys = append(keys, k)
	}
	sortStrings(keys)
	var sb strings.Builder
	sb.WriteString(m.Name)
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, m.Labels[k])
	}
	sb.WriteByte('}')
	return sb.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ParseText is a strict scraper for the Prometheus text exposition
// format, used by the serve tests and the CI smoke test. It validates
// comment directives and sample-line syntax, requires every sample's
// metric family to carry both a HELP and a TYPE directive (summary and
// histogram samples resolve their _sum/_count/_bucket suffixes to the
// family name first), and returns every sample. A malformed line is an
// error, not a skip — the point is to prove the endpoint's output
// parses.
func ParseText(r io.Reader) ([]Metric, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Metric
	types := map[string]string{}
	helps := map[string]bool{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("line %d: malformed comment directive %q", lineNo, line)
			}
			if fields[1] == "HELP" {
				if len(fields) != 4 || strings.TrimSpace(fields[3]) == "" {
					return nil, fmt.Errorf("line %d: HELP directive with no help text %q", lineNo, line)
				}
				helps[fields[2]] = true
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE directive %q", lineNo, line)
				}
				switch fields[3] {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
				}
				types[fields[2]] = fields[3]
			}
			continue
		}
		m, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		family := familyName(m.Name, types)
		if types[family] == "" {
			return nil, fmt.Errorf("line %d: metric %s has no TYPE directive", lineNo, m.Name)
		}
		if !helps[family] {
			return nil, fmt.Errorf("line %d: metric %s has no HELP directive", lineNo, m.Name)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no samples in exposition")
	}
	return out, nil
}

// familyName resolves a sample name to its metric family: summary
// samples may carry _sum/_count suffixes (and histogram samples
// _bucket too) on top of the family name the directives annotate.
func familyName(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suffix := range []string{"_sum", "_count", "_bucket"} {
		base, found := strings.CutSuffix(name, suffix)
		if !found {
			continue
		}
		switch types[base] {
		case "summary":
			if suffix != "_bucket" {
				return base
			}
		case "histogram":
			return base
		}
	}
	return name
}

func parseSample(line string) (Metric, error) {
	m := Metric{Labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	if brace >= 0 {
		m.Name = rest[:brace]
		end := strings.IndexByte(rest, '}')
		if end < brace {
			return m, fmt.Errorf("unterminated label set in %q", line)
		}
		labels := rest[brace+1 : end]
		rest = strings.TrimSpace(rest[end+1:])
		for _, pair := range splitLabels(labels) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return m, fmt.Errorf("malformed label %q", pair)
			}
			key := pair[:eq]
			val := pair[eq+1:]
			unq, err := strconv.Unquote(val)
			if err != nil {
				return m, fmt.Errorf("label value %s not quoted: %v", val, err)
			}
			m.Labels[key] = unq
		}
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return m, fmt.Errorf("no value in %q", line)
		}
		m.Name = rest[:sp]
		rest = strings.TrimSpace(rest[sp+1:])
	}
	if m.Name == "" || !validMetricName(m.Name) {
		return m, fmt.Errorf("invalid metric name in %q", line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return m, fmt.Errorf("invalid value %q: %v", rest, err)
	}
	m.Value = v
	return m, nil
}

// splitLabels splits k1="v1",k2="v2" on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, strings.TrimSpace(s[start:]))
	}
	return out
}

func validMetricName(s string) bool {
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
