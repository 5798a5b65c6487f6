package route

import (
	"runtime"
	"testing"
)

// checkTable asserts that Lookup agrees with Compute on every (src, dst)
// pair of g, misses included: a pair Compute cannot route (loopback, or a
// route longer than MaxSteps) must miss, and every other pair must return
// Compute's word.
func checkTable(t *testing.T, g fakeGeom) *Table {
	t.Helper()
	tiles := g.kx * g.ky
	tab := BuildTable(g, tiles)
	if tab.Tiles() != tiles {
		t.Fatalf("%+v: Tiles = %d, want %d", g, tab.Tiles(), tiles)
	}
	for src := 0; src < tiles; src++ {
		for dst := 0; dst < tiles; dst++ {
			w, ok := tab.Lookup(src, dst)
			want, err := Compute(g, src, dst)
			if ok != (err == nil) || (ok && w != want) {
				t.Fatalf("%+v: Lookup(%d,%d) = %v,%v; Compute = %v,%v", g, src, dst, w, ok, want, err)
			}
		}
	}
	return tab
}

func TestTableMatchesCompute(t *testing.T) {
	for _, g := range []fakeGeom{
		{4, 4, true}, {4, 4, false}, {3, 5, false}, {6, 6, true},
		// Odd, rectangular, degenerate (1×k) and 1024-tile geometries.
		{5, 4, true}, {4, 5, true}, {7, 3, true}, {33, 17, true},
		{1, 6, true}, {6, 1, true}, {3, 7, false}, {32, 32, false},
	} {
		checkTable(t, g)
	}
}

// TestTableLongRouteMisses pins the one fault-free miss: on a 32×32
// torus the half-ring offset (16,16) is 32 hops plus Extract, one step
// more than a Word holds, so the table must report no route and leave
// the error to Compute.
func TestTableLongRouteMisses(t *testing.T) {
	g := fakeGeom{32, 32, true}
	tab := checkTable(t, g)
	for _, src := range []int{0, 1, 33, 1023} {
		sx, sy := src%32, src/32
		dst := (sy+16)%32*32 + (sx+16)%32
		if w, ok := tab.Lookup(src, dst); ok {
			t.Fatalf("Lookup(%d,%d) = %v, want a miss for offset (16,16)", src, dst, w)
		}
	}
}

func TestTableLookupOutOfRange(t *testing.T) {
	tab := BuildTable(fakeGeom{2, 2, false}, 4)
	for _, pair := range [][2]int{{-1, 0}, {0, -1}, {4, 0}, {0, 4}} {
		if _, ok := tab.Lookup(pair[0], pair[1]); ok {
			t.Fatalf("Lookup%v ok, want miss", pair)
		}
	}
}

// TestBuildTableMemory is the size regression gate: a 64×64 torus table
// holds one word per offset (127² words), not one per pair (4096² words,
// ~285 MB), so the build must allocate well under 1 MiB.
func TestBuildTableMemory(t *testing.T) {
	var g Geometry = fakeGeom{64, 64, true}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab := BuildTable(g, 4096)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("BuildTable(64x64 torus) allocated %d bytes, want < 1 MiB", got)
	}
	if _, ok := tab.Lookup(0, 4095); !ok {
		t.Fatal("64x64 table has no route for (0, 4095)")
	}
}
