package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/telemetry"
)

// validSpec is a minimal spec ParseSpec accepts, with the given radix
// and extra JSON fields spliced in.
func validSpec(topo string, k int, extra string) string {
	return fmt.Sprintf(`{"kind":"run","topology":%q,"k":%d,"pattern":"uniform","rate":0.1,"flits_per_packet":1,"measure_cycles":100%s}`, topo, k, extra)
}

// TestParseSpecRejectsHostileSizes pins the range checks on specs read
// back from flight-recorder dumps: Rebuild trusts the parsed spec, so a
// radix the topology cannot build or outside maxSpecK, a negative VC or
// buffer count, an offered rate or packet length that would size
// unbounded payloads, or an unknown router mode must fail at parse time
// with an error naming the field.
func TestParseSpecRejectsHostileSizes(t *testing.T) {
	for _, tc := range []struct{ spec, field string }{
		{`{"kind":"run","topology":"torus","k":0}`, "radix"},
		{`{"kind":"run","topology":"torus","k":-4}`, "radix"},
		{`{"kind":"run","topology":"torus","k":129}`, "radix"},
		{`{"kind":"run","topology":"torus","k":1000000}`, "radix"},
		{`{"kind":"run","topology":"torus","k":2}`, "radix"},
		{`{"kind":"run","topology":"mesh","k":1}`, "radix"},
		{`{"kind":"run","topology":"torus","k":4,"num_vcs":-1}`, "num_vcs"},
		{`{"kind":"run","topology":"torus","k":4,"buf_flits":-2}`, "buf_flits"},
		// Without the rate and packet-length bounds, Rebuild then Run(5)
		// asks the generators for a 32 GB payload.
		{`{"kind":"run","topology":"torus","k":4,"pattern":"uniform","rate":1e12,"flits_per_packet":1000000000,"measure_cycles":100}`, "rate"},
		{validSpec("torus", 4, `,"flits_per_packet":32769`), "flits_per_packet"},
		{validSpec("torus", 4, `,"mode":99`), "mode"},
		{validSpec("torus", 4, `,"measure_cycles":-5`), "measure_cycles"},
		// The window's end wraps negative: the generators' StopAt and the
		// run horizon would follow, and the run would do nothing.
		{validSpec("torus", 4, `,"warmup_cycles":10,"measure_cycles":9223372036854775807`), "warmup_cycles + measure_cycles"},
	} {
		_, err := ParseSpec([]byte(tc.spec))
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("ParseSpec(%s) err = %v, want an error naming %s", tc.spec, err, tc.field)
		}
	}
	for _, tc := range []struct {
		topo string
		k    int
	}{{"torus", 3}, {"mesh", 2}, {"torus", maxSpecK}} {
		if _, err := ParseSpec([]byte(validSpec(tc.topo, tc.k, ""))); err != nil {
			t.Errorf("ParseSpec(%s k=%d) rejected a radix in range: %v", tc.topo, tc.k, err)
		}
	}
}

// TestRebuildRejectsHostileBufferDepth: ParseSpec accepts any positive
// buf_flits, so Rebuild must refuse a buffer memory no die needs with an
// error naming the field instead of attempting the allocation.
func TestRebuildRejectsHostileBufferDepth(t *testing.T) {
	for _, buf := range []int64{1 << 40, math.MaxInt64} {
		spec := validSpec("torus", 4, fmt.Sprintf(`,"buf_flits":%d`, buf))
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

func mustHash(t *testing.T, s SimSpec) uint64 {
	t.Helper()
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestSpecIsTheRunDescription pins Spec as the one list of state-shaping
// fields: setting any field moves SimSpec.Hash and survives the dump
// round trip through ParseSpec; the kind, the extra identity and an
// attached probe move the hash too; and no per-run knob outside Spec
// does.
func TestSpecIsTheRunDescription(t *testing.T) {
	base := DefaultRunParams()
	baseHash := mustHash(t, base.SimSpec("run", ""))
	// A valid value other than the default, for each string field.
	altString := map[string]string{"torus": "mesh", "uniform": "transpose"}
	for _, sf := range reflect.VisibleFields(reflect.TypeOf(Spec{})) {
		p := DefaultRunParams()
		f := reflect.ValueOf(&p.Spec).Elem().FieldByIndex(sf.Index)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int64:
			if v := f.Int(); v > 1 {
				f.SetInt(v - 1)
			} else {
				f.SetInt(v + 1)
			}
		case reflect.Float64:
			f.SetFloat(f.Float() / 2)
		case reflect.String:
			alt, ok := altString[f.String()]
			if !ok {
				t.Fatalf("Spec.%s: no alternate value for %q; add one to altString", sf.Name, f.String())
			}
			f.SetString(alt)
		default:
			t.Fatalf("Spec.%s: unhandled kind %s", sf.Name, f.Kind())
		}
		s := p.SimSpec("run", "")
		if mustHash(t, s) == baseHash {
			t.Errorf("Spec.%s: setting it leaves the hash unchanged", sf.Name)
		}
		data, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("Spec.%s: ParseSpec(%s): %v", sf.Name, data, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("Spec.%s: round trip changed the spec:\n got %+v\nwant %+v", sf.Name, got, s)
		}
	}

	for name, s := range map[string]SimSpec{
		"kind":  base.SimSpec("campaign", ""),
		"extra": base.SimSpec("run", "plan"),
		"probe": func() SimSpec {
			p := base
			p.Probe = telemetry.New(telemetry.Config{})
			return p.SimSpec("run", "")
		}(),
	} {
		if mustHash(t, s) == baseHash {
			t.Errorf("%s: the hash ignores it", name)
		}
	}

	for _, knob := range []struct {
		name string
		set  func(*RunParams)
	}{
		{"Shards", func(p *RunParams) { p.Shards = 3 }},
		{"DrainBudget", func(p *RunParams) { p.DrainBudget = 7 }},
		{"OnNetwork", func(p *RunParams) { p.OnNetwork = func(*network.Network, SimSpec) error { return nil } }},
		{"CheckpointEvery", func(p *RunParams) { p.CheckpointEvery = 100 }},
		{"CheckpointDir", func(p *RunParams) { p.CheckpointDir = "ckpt" }},
		{"Resume", func(p *RunParams) { p.Resume = true }},
	} {
		p := base
		knob.set(&p)
		if mustHash(t, p.SimSpec("run", "")) != baseHash {
			t.Errorf("%s: a byte-identical knob moved the hash", knob.name)
		}
	}
}

// TestDefaultSpecHashIsStable pins the configuration hash of the default
// run. Checkpoints and flight-recorder dumps carry this hash, so a change
// to Spec's JSON (a renamed, reordered or retagged field) would make every
// file written before it refuse to resume or replay.
func TestDefaultSpecHashIsStable(t *testing.T) {
	if got, want := mustHash(t, DefaultRunParams().SimSpec("run", "")), uint64(0x988d6c7096306ad1); got != want {
		t.Errorf("DefaultRunParams().SimSpec(\"run\", \"\").Hash() = %#x, want %#x", got, want)
	}
}

// FuzzParseSpec feeds arbitrary bytes through the dump-spec decoder:
// ParseSpec must never panic, and every spec it accepts must be in range
// and hash.
func FuzzParseSpec(f *testing.F) {
	if data, err := DefaultRunParams().SimSpec("run", "").JSON(); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"kind":"run","topology":"mesh","k":128,"probe_trace":true,"probe_max_trace_events":-1}`))
	f.Add([]byte(`{"k":-1}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"kind":"run","topology":"torus","k":4,"pattern":"uniform","rate":1e12,"flits_per_packet":1000000000,"measure_cycles":100}`))
	f.Add([]byte(validSpec("torus", 4, `,"mode":99`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if s.K < 1 || s.K > maxSpecK || s.FlitsPerPacket < 1 || s.FlitsPerPacket > maxSpecFlits {
			t.Fatalf("ParseSpec accepted k=%d, flits_per_packet=%d", s.K, s.FlitsPerPacket)
		}
		if _, err := s.Hash(); err != nil {
			t.Fatalf("accepted spec does not hash: %v", err)
		}
	})
}
