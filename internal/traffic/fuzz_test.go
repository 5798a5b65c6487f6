package traffic

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseTrace throws arbitrary text at the trace parser nocsim -trace
// opens files through. Any input must parse or fail with an error, never
// panic; every accepted event must be replayable — a payload within
// MaxTraceBytes and a cycle whose horizon (cycle+1) does not wrap — and
// the events must come back sorted by cycle and survive a WriteTrace ->
// ParseTrace round trip unchanged.
func FuzzParseTrace(f *testing.F) {
	f.Add("# cycle src dst bytes class\n0 0 1 64 0\n3 1 2 32\n")
	f.Add("5 2 3 16 1\n1 0 15 8\n\n# late comment\n5 1 0 4 -2\n")
	f.Add("0 0 1 1048576\n")
	f.Add("0 0 1 1099511627776\n")
	f.Add("9223372036854775806 0 1 32\n")
	f.Add("9223372036854775807 0 1 32\n")
	f.Add("3 1 2\n")
	f.Fuzz(func(t *testing.T, text string) {
		events, err := ParseTrace(strings.NewReader(text))
		if err != nil {
			if events != nil {
				t.Fatal("ParseTrace returned both events and an error")
			}
			return
		}
		for i, e := range events {
			if e.Bytes < 0 || e.Bytes > MaxTraceBytes {
				t.Fatalf("event %d accepted with %d bytes", i, e.Bytes)
			}
			if e.Cycle < 0 || e.Cycle == math.MaxInt64 {
				t.Fatalf("event %d accepted at cycle %d", i, e.Cycle)
			}
			if i > 0 && e.Cycle < events[i-1].Cycle {
				t.Fatalf("events out of order: cycle %d after %d", e.Cycle, events[i-1].Cycle)
			}
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, events); err != nil {
			t.Fatal(err)
		}
		again, err := ParseTrace(&buf)
		if err != nil {
			t.Fatalf("written trace rejected: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("round trip diverged:\n  parsed:   %+v\n  reparsed: %+v", events, again)
		}
	})
}
