package main

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"syscall"
)

// The host this benchmark runs on may share its cores and caches with
// other work, which slows every instruction by a shifting share, for
// seconds at a time, by up to a half. A fixed reference kernel that
// shares no code with the simulator is timed in slices interleaved with
// the work being measured, and every time the benchmark reports is that
// work's CPU time scaled by how much slower than nominal the reference
// ran beside it. A change to the simulator moves the reported times in
// full; a change in the host's speed moves the work and the reference
// alike and mostly cancels.
//
// The reference has two parts. A dependent walk over two rings of 64 KiB
// and 256 KiB, which spill out of L1 and fit in L2, is bound by cache
// latency; a fixed mix of standard-library code (compression, regular
// expressions, sorting, number formatting) runs far more distinct code.
// Under the contention seen on a 2-core 2.1 GHz Xeon VM (48 KiB L1d and
// 2 MiB L2 per core), the simulator slowed more than the walk and less
// than the library mix; timed together they tracked it best. Over five
// seeds per workload, the median raw simulation time spread by 0.22-0.46
// from run to run (quartile distance over median); scaled by the walk
// alone, by up to 0.10; scaled by both, by at most 0.04.
//
// Each slice runs the reference once untimed and then once timed, so the
// timed pass finds its data in cache whatever the measured work left
// there: the reference gauges the host's speed, not the simulator's
// footprint, and a change in that footprint moves the scaled times in
// full.

const (
	refSteps = 1 << 16 // per ring, per slice

	// refSliceSeconds is the CPU time of one timed reference pass on a
	// quiet core of the Xeon VM above; it only fixes the unit of the
	// scaled times.
	refSliceSeconds = 0.0017
)

// refRings are random cyclic permutations of 64 KiB and 256 KiB of
// links: following one visits every node in an order no prefetcher can
// predict.
var refRings = [][]int32{newRing(1 << 14), newRing(1 << 16)}

func newRing(nodes int) []int32 {
	rng := rand.New(rand.NewSource(1))
	order := rng.Perm(nodes)
	ring := make([]int32, nodes)
	for i, v := range order {
		ring[v] = int32(order[(i+1)%nodes])
	}
	return ring
}

// The library mix's fixed inputs and reused outputs, so a pass allocates
// nothing.
var (
	libText   = libInput()
	libWords  = libSample(libText, 512)
	libSorted = make([]string, len(libWords))
	libRe     = regexp.MustCompile(`(\w+)@(\w+)\.(com|org|net)|[0-9]{3,}-[a-z]+`)
	libOut    bytes.Buffer
	libZ, _   = flate.NewWriter(&libOut, 5)
	libNum    []byte
)

// libInput is 8 KiB of word-like text with addresses and numbers in it.
func libInput() []byte {
	rng := rand.New(rand.NewSource(2))
	parts := []string{"ka", "to", "re", "mi", "su", "no", "ha", "ri", "lo", "ve", "@", ".com", " ", "-", "123"}
	var text []byte
	for len(text) < 8<<10 {
		text = append(text, parts[rng.Intn(len(parts))]...)
	}
	return text
}

// libSample cuts n short strings out of text.
func libSample(text []byte, n int) []string {
	rng := rand.New(rand.NewSource(3))
	out := make([]string, n)
	for i := range out {
		out[i] = string(text[rng.Intn(len(text)-12):][:4+rng.Intn(8)])
	}
	return out
}

var refSink int64

// reference runs one pass of the reference kernel.
func reference() {
	walkRings()
	library()
}

// walkRings follows each ring for refSteps links, with data-dependent
// branches and a small table update per step.
func walkRings() {
	for _, ring := range refRings {
		var table [256]int64
		p, acc := int32(refSink&int64(len(ring)-1)), int64(0)
		for i := 0; i < refSteps; i++ {
			p = ring[p]
			switch p & 3 {
			case 0:
				acc += int64(p)
			case 1:
				acc ^= int64(p) << 3
			default:
				table[p&255]++
			}
		}
		refSink = acc + table[int(acc)&255]
	}
}

// library compresses the text, counts its 64-byte pieces that hold the
// pattern, sorts the sampled words and formats numbers.
func library() {
	libOut.Reset()
	libZ.Reset(&libOut)
	if _, err := libZ.Write(libText); err != nil {
		panic(fmt.Sprintf("reference: compress: %v", err))
	}
	if err := libZ.Close(); err != nil {
		panic(fmt.Sprintf("reference: compress: %v", err))
	}
	matches := 0
	for at := 0; at < len(libText); at += 64 {
		if libRe.Match(libText[at:min(at+64, len(libText))]) {
			matches++
		}
	}
	copy(libSorted, libWords)
	sort.Strings(libSorted)
	libNum = libNum[:0]
	for i := 0; i < 250; i++ {
		libNum = strconv.AppendFloat(libNum, float64(i)*1.37e-3+float64(matches), 'g', -1, 64)
	}
	refSink += int64(libOut.Len() + matches + len(libNum) + len(libSorted[0]))
}

// meter accumulates the CPU time of measured work and of the reference
// slices run beside it.
type meter struct {
	work, ref float64 // seconds
	slices    int
}

// time runs f, then one reference slice: a pass that brings the
// reference's data back into cache, then a timed pass. Work and timed
// reference are measured in CPU time.
func (m *meter) time(f func()) {
	t0 := cpuNow()
	f()
	t1 := cpuNow()
	reference()
	t2 := cpuNow()
	reference()
	t3 := cpuNow()
	m.work += t1 - t0
	m.ref += t3 - t2
	m.slices++
}

// scale is the factor that takes a CPU time measured beside the meter's
// reference slices to the nominal host.
func (m meter) scale() float64 { return float64(m.slices) * refSliceSeconds / m.ref }

// scaled is the metered work's CPU time on the nominal host.
func (m meter) scaled() float64 { return m.work * m.scale() }

// cpuNow reports the process's CPU time (user plus system) in seconds.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(int64(ru.Utime.Sec)+int64(ru.Stime.Sec)) + float64(int64(ru.Utime.Usec)+int64(ru.Stime.Usec))/1e6
}
