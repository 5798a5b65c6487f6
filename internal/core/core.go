package core

import (
	"fmt"
	"strings"
)

// Table is one experiment's output: a paper claim and the measured rows
// that reproduce it. cmd/nocbench prints these; EXPERIMENTS.md records
// them.
type Table struct {
	ID         string // experiment id from DESIGN.md (E1..E20)
	Title      string
	PaperClaim string // what the paper says, quoted or paraphrased
	Columns    []string
	Rows       [][]string
	Notes      []string
}

// AddRow appends a row; it pads or truncates to the column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a free-form note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned ASCII for terminal reports.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	if t.PaperClaim != "" {
		fmt.Fprintf(&sb, "paper: %s\n", t.PaperClaim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", note)
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavoured Markdown table for
// EXPERIMENTS.md.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	if t.PaperClaim != "" {
		fmt.Fprintf(&sb, "**Paper:** %s\n\n", t.PaperClaim)
	}
	sb.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&sb, "\n*%s*\n", note)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// Experiment pairs an id with its runner. Quick mode shortens the
// measurement windows for unit tests and smoke runs; every run, sweep and
// network the runner builds executes under the Options it is given, which
// leave the table byte-identical.
type Experiment struct {
	ID    string
	Title string
	Run   func(quick bool, opt Options) (*Table, error)
}

// All returns every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Baseline 16-tile folded-torus network", E1Baseline},
		{"E2", "Router area overhead (6.6%)", E2Area},
		{"E3", "Mesh vs torus power (<15% overhead)", E3Power},
		{"E4", "Load-latency: mesh vs folded torus", E4LoadLatency},
		{"E5", "Flow control vs buffer budget", E5FlowControl},
		{"E6", "Low-swing circuits (10x power, 3x velocity)", E6Circuits},
		{"E7", "Logical wires over the network", E7LogicalWire},
		{"E8", "Pre-scheduled traffic: zero jitter", E8Reservation},
		{"E9", "Wire duty factor: dedicated vs shared", E9DutyFactor},
		{"E10", "Interface partitioning: 1x256 vs 8x32", E10Partition},
		{"E11", "Fault tolerance: spare-bit steering, ECC, retry", E11Fault},
		{"E12", "Network vs shared bus", E12Bus},
		{"E13", "Bits per wire per clock; serialized links", E13Serdes},
		{"E14", "Port interface semantics", E14Interface},
		{"E15", "Internal network registers: in-band setup", E15Registers},
		{"E16", "Timing closure: statistical vs structured wiring", E16TimingClosure},
		{"E17", "Fixed tiles vs compaction", E17Compaction},
		{"E18", "Topology choice across network sizes", E18TopologyScaling},
		{"E19", "Adaptive routing vs dimension order", E19Adaptive},
		{"E20", "Chaos campaign: runtime faults, detection, rerouting", E20Chaos},
	}
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q", id)
}
