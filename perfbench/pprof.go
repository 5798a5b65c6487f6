package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes just enough of a runtime/pprof CPU profile (a
// gzip-compressed profile.proto message) to attribute the sampled CPU
// time spent inside the simulation kernel two ways: to the kernel phase
// whose body is on the call stack, and to the package of the innermost
// frame (the layer doing the work).

// phaseOf maps the network's phase-body methods to the kernel phase they
// implement (internal/network registerPhases).
var phaseOf = map[string]string{
	"deliverShard":      "deliver",
	"deliverGatedShard": "deliver",
	"deliverMerge":      "deliver",
	"routeShard":        "route",
	"linkarbShard":      "linkarb",
	"linkarbMerge":      "linkarb",
	"switcharbShard":    "switcharb",
	"ejectShard":        "eject",
	"ejectMerge":        "eject",
	"clientsTick":       "clients",
	"pumpShard":         "pump",
	"pumpMerge":         "pump",
}

// phases lists the kernel phases in schedule order.
var phases = []string{"deliver", "route", "linkarb", "switcharb", "eject", "clients", "pump"}

// layers lists the packages whose self time is reported: the simulator's
// hot-loop packages, its other packages together ("other": the kernel
// loop, flit queues and the rest, each too small to sample apart), the
// benchmark's own clients ("bench"), and the Go runtime and standard
// library ("go").
var layers = []string{"router", "link", "network", "other", "bench", "go"}

const (
	networkMethod = "repro/internal/network.(*Network)."
	kernelMethod  = "repro/internal/sim.(*Kernel)."
	repoPackage   = "repro/internal/"
)

// layerOf names the layer a function belongs to.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, repoPackage); ok {
		switch pkg, _, _ := strings.Cut(rest, "."); pkg {
		case "router", "link", "network":
			return pkg
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return "go"
}

// cpuBreakdown is a CPU profile's sampled time inside the simulation
// kernel, in nanoseconds.
type cpuBreakdown struct {
	phase map[string]int64 // by kernel phase on the stack
	layer map[string]int64 // by package of the innermost frame
}

// breakdown attributes a CPU profile's samples. Samples with no kernel
// frame on the stack (set-up, forced collections, background garbage
// collection) are left out; kernel samples outside every phase body are
// the drain's occupancy poll and the loop itself.
func breakdown(profile []byte) (cpuBreakdown, error) {
	out := cpuBreakdown{phase: map[string]int64{}, layer: map[string]int64{}}
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return out, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return out, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		samples [][]byte
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	name := func(fn uint64) string {
		if i, ok := funcs[fn]; ok && i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, s := range samples {
		var stack, values []uint64
		err := fields(s, func(num int, v uint64, b []byte) error {
			switch num {
			case 1:
				stack = appendRepeated(stack, v, b)
			case 2:
				values = appendRepeated(values, v, b)
			}
			return nil
		})
		if err != nil {
			return out, err
		}
		// A CPU profile's sample values are (sample count, CPU nanoseconds).
		if len(values) < 2 || len(stack) == 0 {
			return out, errors.New("profile: not a CPU profile")
		}
		ns := int64(values[1])
		phase, inKernel := "", false
		for _, loc := range stack {
			for _, fn := range locs[loc] {
				f := name(fn)
				if m, ok := strings.CutPrefix(f, networkMethod); ok && phase == "" {
					phase = phaseOf[m]
				}
				if strings.HasPrefix(f, kernelMethod) {
					inKernel = true
				}
			}
		}
		if !inKernel {
			continue
		}
		if phase != "" {
			out.phase[phase] += ns
		}
		if fns := locs[stack[0]]; len(fns) > 0 {
			out.layer[layerOf(name(fns[0]))] += ns
		}
	}
	return out, nil
}

// appendRepeated appends one element of a repeated integer field, which
// the encoder writes either as a single varint or as a packed run.
func appendRepeated(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// fields walks the top-level fields of one protobuf message, calling fn
// with the field number and either its varint value (b nil) or its
// length-delimited bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
	}
	return nil
}
