package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// TestFlags builds tracegen and runs it: flags it refuses must exit 1
// naming the flag, and every trace it writes must parse with
// traffic.ParseTrace, which is what nocsim -trace replays through.
func TestFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test is not -short")
	}
	bin := filepath.Join(t.TempDir(), "tracegen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr []byte, err error) {
		var o, e bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &o, &e
		err = cmd.Run()
		return o.Bytes(), e.Bytes(), err
	}
	maxBytes := strconv.Itoa(traffic.MaxTraceBytes)
	for _, args := range [][]string{
		{"-k", "1"},
		{"-k", "0"},
		{"-k", "-3"},
		{"-bytes", "-1"},
		{"-bytes", strconv.Itoa(traffic.MaxTraceBytes + 1)},
		{"-bytes", "10000000"},
	} {
		_, stderr, err := run(args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("tracegen %v: err = %v; want exit status 1\n%s", args, err, stderr)
		} else if !strings.Contains(string(stderr), args[0]+" must be") {
			t.Errorf("tracegen %v: stderr does not name %s:\n%s", args, args[0], stderr)
		}
	}
	for _, args := range [][]string{
		{},
		{"-k", "2", "-bytes", "0", "-cycles", "50", "-rate", "0.5"},
		{"-k", "3", "-bytes", maxBytes, "-cycles", "20", "-rate", "0.5", "-pattern", "tornado"},
	} {
		stdout, stderr, err := run(args...)
		if err != nil {
			t.Errorf("tracegen %v: %v\n%s", args, err, stderr)
			continue
		}
		events, err := traffic.ParseTrace(bytes.NewReader(stdout))
		if err != nil {
			t.Errorf("tracegen %v wrote a trace ParseTrace refuses: %v", args, err)
		} else if len(events) == 0 {
			t.Errorf("tracegen %v wrote no events", args)
		}
	}
}
