package latency

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSLO throws arbitrary specs at the -slo parser. Any input must
// parse or fail with an error, never panic, and an accepted list must be
// canonical: joining the objectives' String() forms with ';' and parsing
// again yields the same objectives.
func FuzzParseSLO(f *testing.F) {
	f.Add("p99<=40@flows")
	f.Add("p99<=40@flows;p50<=8")
	f.Add(" p999<=+7 ;; p90<=1 ")
	f.Add("p99<=40;p99<=8")
	f.Add("p98<=40")
	f.Add("p99<=40@links")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		objs, err := ParseSLO(spec)
		if err != nil {
			return
		}
		forms := make([]string, len(objs))
		for i, ob := range objs {
			forms[i] = ob.String()
		}
		canonical := strings.Join(forms, ";")
		again, err := ParseSLO(canonical)
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v (spec %q)", canonical, err, spec)
		}
		if !reflect.DeepEqual(again, objs) {
			t.Fatalf("round trip diverged:\n  parsed:   %+v\n  reparsed: %+v\n  spec: %q", objs, again, spec)
		}
	})
}
