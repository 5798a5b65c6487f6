package flightrec

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry/sampler"
)

// FuzzParseDump throws arbitrary bytes at the dump parser nocpost opens
// files through. Any input must parse or fail with an error, never
// panic, and a parsed dump's lookups must keep their contracts:
// RecordAt(c) is nil or c's record, Range stays inside its bounds, and
// KeyframeBefore(c) is nil or at or before c. Each input is also tried
// with its container CRCs recomputed, so byte mutations inside the
// sections reach the dump decoder instead of failing the checksums.
func FuzzParseDump(f *testing.F) {
	n := newRecordedNet(f, 0.3, 0, 2)
	dir := f.TempDir()
	_, rec := attach(f, n, sampler.Config{Every: 8}, Config{Window: 16, Keyframes: 1, Dir: dir, SpecJSON: []byte(`{"kind":"run","k":4}`), SpecKind: "run"})
	n.Run(150)
	dumpNow(f, n, rec, "fuzz")
	paths, err := filepath.Glob(filepath.Join(dir, "*.frec"))
	if err != nil || len(paths) != 1 {
		f.Fatalf("dump files %v (%v), want one", paths, err)
	}
	good, err := os.ReadFile(paths[0])
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.Equal(reseal(good), good) {
		f.Fatal("reseal altered an intact dump")
	}
	f.Add(good)
	for _, cut := range []int{0, 4, 20, len(good) / 3, len(good) / 2, len(good) - 5, len(good) - 1} {
		f.Add(good[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, reseal(data)} {
			dp, err := ParseDump(img)
			if err != nil {
				if dp != nil {
					t.Fatal("ParseDump returned both a dump and an error")
				}
				continue
			}
			first, last := dp.FirstCycle(), dp.LastCycle()
			for _, c := range []int64{math.MinInt64, first - 1, first, dp.Cycle, last, last + 1, math.MaxInt64} {
				if r := dp.RecordAt(c); r != nil && r.Cycle != c {
					t.Fatalf("RecordAt(%d) returned the record of cycle %d", c, r.Cycle)
				}
				for _, r := range dp.Range(c, last) {
					if r.Cycle < c || r.Cycle > last {
						t.Fatalf("Range(%d, %d) returned cycle %d", c, last, r.Cycle)
					}
				}
				if kf := dp.KeyframeBefore(c); kf != nil && kf.Cycle > c {
					t.Fatalf("KeyframeBefore(%d) returned a keyframe at cycle %d", c, kf.Cycle)
				}
			}
		}
	})
}

// reseal returns a copy of a checkpoint-container image with every CRC
// recomputed, or nil when the image's length fields do not frame a
// container (see package checkpoint for the layout).
func reseal(data []byte) []byte {
	const hdrAt = 16 // magic, version, header length
	if len(data) < hdrAt {
		return nil
	}
	out := append([]byte(nil), data...)
	le := binary.LittleEndian
	hdrLen := int(le.Uint32(out[12:]))
	if hdrLen < 20 || hdrLen > len(out)-hdrAt-4 {
		return nil
	}
	le.PutUint32(out[hdrAt+hdrLen:], crc32.ChecksumIEEE(out[hdrAt:hdrAt+hdrLen]))
	sections := int(le.Uint32(out[hdrAt+16:]))
	off := hdrAt + hdrLen + 4
	for i := 0; i < sections; i++ {
		if len(out)-off < 2 {
			return nil
		}
		off += 2 + int(le.Uint16(out[off:]))
		if len(out)-off < 4 {
			return nil
		}
		size := int(le.Uint32(out[off:]))
		off += 4
		if size > len(out)-off-4 {
			return nil
		}
		le.PutUint32(out[off+size:], crc32.ChecksumIEEE(out[off:off+size]))
		off += size + 4
	}
	if len(out)-off != 4 {
		return nil
	}
	le.PutUint32(out[off:], crc32.ChecksumIEEE(out[:off]))
	return out
}

// TestParseDumpRejectsDisorder pins the orderings the dump lookups rely
// on: RecordAt and Range index records by cycle offset, and
// KeyframeBefore binary-searches keyframes, so ParseDump refuses a ring
// that skips a cycle and keyframes out of order.
func TestParseDumpRejectsDisorder(t *testing.T) {
	n := newRecordedNet(t, 0.3, 0, 2)
	_, rec := attach(t, n, sampler.Config{Every: 8}, Config{Window: 16, Dir: t.TempDir()})
	n.Run(150)
	if _, err := ParseDump(rec.encode(150, "intact")); err != nil {
		t.Fatalf("intact dump: %v", err)
	}
	rec.ring[rec.next].Cycle += 2
	if _, err := ParseDump(rec.encode(150, "gap")); err == nil || !strings.Contains(err.Error(), "contiguous") {
		t.Errorf("ring with a gap: err = %v, want the contiguity error", err)
	}
	rec.ring[rec.next].Cycle -= 2
	if len(rec.keyframes) < 2 {
		t.Fatalf("%d keyframes, want at least 2", len(rec.keyframes))
	}
	rec.keyframes[0], rec.keyframes[1] = rec.keyframes[1], rec.keyframes[0]
	if _, err := ParseDump(rec.encode(150, "swapped")); err == nil || !strings.Contains(err.Error(), "oldest first") {
		t.Errorf("swapped keyframes: err = %v, want the ordering error", err)
	}
}
