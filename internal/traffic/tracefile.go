package traffic

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/flit"
)

// Trace file format: one event per line,
//
//	cycle src dst bytes [class]
//
// with '#' comments and blank lines ignored. Events need not be sorted;
// ParseTrace sorts them by cycle (stable, preserving same-cycle order).

// MaxTraceBytes caps one trace event's payload: 1 MiB is 32768 32-byte
// flits, far above any packet the generators build, and a replayed event
// allocates its payload whole.
const MaxTraceBytes = 1 << 20

// ParseTrace reads a trace. It rejects, naming the line, any event whose
// payload exceeds MaxTraceBytes or whose cycle leaves no room for the
// replay horizon one cycle past it.
func ParseTrace(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields) > 5 {
			return nil, fmt.Errorf("traffic: trace line %d: want 'cycle src dst bytes [class]', got %q", lineNo, line)
		}
		var e Event
		if _, err := fmt.Sscanf(fields[0], "%d", &e.Cycle); err != nil || e.Cycle < 0 {
			return nil, fmt.Errorf("traffic: trace line %d: bad cycle %q", lineNo, fields[0])
		}
		if e.Cycle == math.MaxInt64 {
			return nil, fmt.Errorf("traffic: trace line %d: cycle %d overflows the replay horizon", lineNo, e.Cycle)
		}
		if _, err := fmt.Sscanf(fields[1], "%d", &e.Src); err != nil || e.Src < 0 {
			return nil, fmt.Errorf("traffic: trace line %d: bad src %q", lineNo, fields[1])
		}
		if _, err := fmt.Sscanf(fields[2], "%d", &e.Dst); err != nil || e.Dst < 0 {
			return nil, fmt.Errorf("traffic: trace line %d: bad dst %q", lineNo, fields[2])
		}
		if _, err := fmt.Sscanf(fields[3], "%d", &e.Bytes); err != nil || e.Bytes < 0 {
			return nil, fmt.Errorf("traffic: trace line %d: bad bytes %q", lineNo, fields[3])
		}
		if e.Bytes > MaxTraceBytes {
			return nil, fmt.Errorf("traffic: trace line %d: %d bytes exceeds the %d-byte event cap", lineNo, e.Bytes, MaxTraceBytes)
		}
		if len(fields) == 5 {
			if _, err := fmt.Sscanf(fields[4], "%d", &e.Class); err != nil {
				return nil, fmt.Errorf("traffic: trace line %d: bad class %q", lineNo, fields[4])
			}
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traffic: trace read: %w", err)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
	return events, nil
}

// WriteTrace writes events in the trace file format.
func WriteTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# cycle src dst bytes class"); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d %d\n", e.Cycle, e.Src, e.Dst, e.Bytes, e.Class); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SplitByTile partitions a trace into per-tile TraceSources for the given
// tile count, validating that every event's endpoints are in range.
func SplitByTile(events []Event, tiles int, mask flit.VCMask) ([]*TraceSource, error) {
	srcs := make([]*TraceSource, tiles)
	for tile := 0; tile < tiles; tile++ {
		srcs[tile] = &TraceSource{Tile: tile, Mask: mask}
	}
	for _, e := range events {
		if e.Src >= tiles || e.Dst >= tiles {
			return nil, fmt.Errorf("traffic: trace event %+v outside %d tiles", e, tiles)
		}
		srcs[e.Src].Events = append(srcs[e.Src].Events, e)
	}
	return srcs, nil
}
