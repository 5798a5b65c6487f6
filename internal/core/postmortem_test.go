package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestParseSpecRejectsHostileSizes pins the size bounds on specs read
// back from flight-recorder dumps: Rebuild trusts the parsed spec, so
// a radix outside [1, maxSpecK] or a negative VC or buffer count must
// fail at parse time with an error naming the field.
func TestParseSpecRejectsHostileSizes(t *testing.T) {
	for _, tc := range []struct{ spec, field string }{
		{`{"kind":"run","topology":"torus","k":0}`, "radix"},
		{`{"kind":"run","topology":"torus","k":-4}`, "radix"},
		{`{"kind":"run","topology":"torus","k":129}`, "radix"},
		{`{"kind":"run","topology":"torus","k":1000000}`, "radix"},
		{`{"kind":"run","topology":"torus","k":4,"num_vcs":-1}`, "num_vcs"},
		{`{"kind":"run","topology":"torus","k":4,"buf_flits":-2}`, "buf_flits"},
	} {
		_, err := ParseSpec([]byte(tc.spec))
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("ParseSpec(%s) err = %v, want an error naming %s", tc.spec, err, tc.field)
		}
	}
	for _, k := range []int{1, maxSpecK} {
		spec := fmt.Sprintf(`{"kind":"run","topology":"torus","k":%d}`, k)
		if _, err := ParseSpec([]byte(spec)); err != nil {
			t.Errorf("ParseSpec(k=%d) rejected a radix in range: %v", k, err)
		}
	}
}

// TestRebuildRejectsHostileBufferDepth: ParseSpec accepts any positive
// buf_flits, so Rebuild must refuse a buffer memory no die needs with an
// error naming the field instead of attempting the allocation.
func TestRebuildRejectsHostileBufferDepth(t *testing.T) {
	for _, buf := range []int64{1 << 40, math.MaxInt64} {
		spec := fmt.Sprintf(`{"kind":"run","topology":"torus","k":4,"buf_flits":%d}`, buf)
		s, err := ParseSpec([]byte(spec))
		if err != nil {
			t.Fatalf("ParseSpec(%s): %v", spec, err)
		}
		_, err = s.Rebuild()
		if err == nil || !strings.Contains(err.Error(), "buf_flits") || !strings.Contains(err.Error(), "buffer-slot cap") {
			t.Errorf("Rebuild(%s) err = %v, want the buffer-slot cap naming buf_flits", spec, err)
		}
	}
}

// FuzzParseSpec feeds arbitrary bytes through the dump-spec decoder:
// ParseSpec followed by Params must never panic, whatever the input.
func FuzzParseSpec(f *testing.F) {
	if data, err := SpecForRun("run", DefaultRunParams()).JSON(); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"kind":"run","topology":"mesh","k":128,"probe_trace":true,"probe_max_trace_events":-1}`))
	f.Add([]byte(`{"k":-1}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if s.K < 1 || s.K > maxSpecK {
			t.Fatalf("ParseSpec accepted k=%d", s.K)
		}
		s.Params()
	})
}
