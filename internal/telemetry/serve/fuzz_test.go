package serve

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/telemetry/sampler"
)

// FuzzParseText throws arbitrary text at the strict Prometheus scraper the
// serve tests and the CI smoke test read /metrics through, seeded with the
// exposition of a real snapshot. Any input must parse or fail with an
// error, never panic.
func FuzzParseText(f *testing.F) {
	n := newServedNet(f, 0.3, 0, 2)
	col := AttachCollector(sampled(f, n, sampler.Config{Every: 64}), Config{})
	n.Run(256)
	var buf bytes.Buffer
	if err := WriteProm(&buf, col.Latest()); err != nil {
		f.Fatal(err)
	}
	if _, err := ParseText(bytes.NewReader(buf.Bytes())); err != nil {
		f.Fatalf("a real snapshot's exposition does not parse: %v", err)
	}
	f.Add(buf.String())
	lines := strings.SplitAfter(buf.String(), "\n")
	f.Add(strings.Join(lines[:len(lines)/2], ""))
	f.Add("# HELP x y\n# TYPE x summary\nx{quantile=\"0.5\"} 1\nx_sum 2\nx_count 3\n")
	f.Add("x 1\n")
	f.Fuzz(func(t *testing.T, text string) {
		ms, err := ParseText(strings.NewReader(text))
		if err != nil && ms != nil {
			t.Fatal("ParseText returned both samples and an error")
		}
	})
}
