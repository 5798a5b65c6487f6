package route

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDirAlgebra(t *testing.T) {
	for _, d := range []Dir{North, East, South, West} {
		if d.Opposite().Opposite() != d {
			t.Errorf("%v: opposite not involutive", d)
		}
		if d.Left().Right() != d {
			t.Errorf("%v: left then right != identity", d)
		}
		if d.Left().Left() != d.Opposite() {
			t.Errorf("%v: two lefts != opposite", d)
		}
		if d.Right().Right() != d.Opposite() {
			t.Errorf("%v: two rights != opposite", d)
		}
	}
	if Local.Opposite() != Local {
		t.Error("Local opposite")
	}
}

func TestDirDelta(t *testing.T) {
	sumX, sumY := 0, 0
	for _, d := range []Dir{North, East, South, West} {
		dx, dy := d.Delta()
		if dx == 0 && dy == 0 {
			t.Errorf("%v has zero delta", d)
		}
		sumX += dx
		sumY += dy
	}
	if sumX != 0 || sumY != 0 {
		t.Error("direction deltas do not cancel")
	}
}

func TestAbsDirRoundTrip(t *testing.T) {
	for _, d := range []Dir{North, East, South, West} {
		c, err := absCode(d)
		if err != nil {
			t.Fatalf("absCode(%v): %v", d, err)
		}
		if AbsDir(c) != d {
			t.Errorf("AbsDir(absCode(%v)) = %v", d, AbsDir(c))
		}
	}
	if _, err := absCode(Local); err == nil {
		t.Error("absCode(Local) did not fail")
	}
}

func TestTurnCodeRoundTrip(t *testing.T) {
	for _, h := range []Dir{North, East, South, West} {
		for _, c := range []Code{Straight, Left, Right} {
			next := Turn(h, c)
			got, err := turnCode(h, next)
			if err != nil {
				t.Fatalf("turnCode(%v,%v): %v", h, next, err)
			}
			if got != c {
				t.Errorf("turnCode(%v, Turn(%v,%v)) = %v", h, h, c, got)
			}
		}
		if Turn(h, Extract) != Local {
			t.Errorf("Turn(%v, Extract) != Local", h)
		}
		if _, err := turnCode(h, h.Opposite()); err == nil {
			t.Errorf("U-turn %v encoded without error", h)
		}
	}
}

func TestWordPushPop(t *testing.T) {
	var w Word
	var err error
	codes := []Code{Left, Straight, Right, Extract}
	for _, c := range codes {
		if w, err = w.Push(c); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != 4 {
		t.Fatalf("len = %d", w.Len())
	}
	for i, want := range codes {
		if w.Peek() != want {
			t.Errorf("peek %d = %v, want %v", i, w.Peek(), want)
		}
		var c Code
		c, w = w.Pop()
		if c != want {
			t.Errorf("pop %d = %v, want %v", i, c, want)
		}
	}
	if !w.Empty() {
		t.Error("word not empty after pops")
	}
	// Popping an empty word reads as Extract (fail-safe delivery).
	c, _ := w.Pop()
	if c != Extract {
		t.Errorf("empty pop = %v, want Extract", c)
	}
}

func TestWordOverflow(t *testing.T) {
	var w Word
	var err error
	for i := 0; i < MaxSteps; i++ {
		if w, err = w.Push(Straight); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if _, err = w.Push(Straight); err == nil {
		t.Fatal("overflow push did not fail")
	}
}

func TestBits16(t *testing.T) {
	var w Word
	for i := 0; i < PaperSteps; i++ {
		w, _ = w.Push(Right)
	}
	bits, ok := w.Bits16()
	if !ok || !w.FitsPaperField() {
		t.Fatal("8-step route should fit the 16-bit field")
	}
	if bits != 0xAAAA { // Right = 0b10 in every slot
		t.Fatalf("bits = %04x, want aaaa", bits)
	}
	w, _ = w.Push(Straight)
	if _, ok := w.Bits16(); ok {
		t.Fatal("9-step route reported as fitting 16 bits")
	}
}

func TestEncodeWalkSimple(t *testing.T) {
	path := []Dir{East, East, North}
	w, err := Encode(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 4 { // abs + turn + turn + extract
		t.Fatalf("len = %d, want 4", w.Len())
	}
	got, err := Walk(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(path) {
		t.Fatalf("walk = %v, want %v", got, path)
	}
	for i := range path {
		if got[i] != path[i] {
			t.Fatalf("walk = %v, want %v", got, path)
		}
	}
}

func TestEncodeRejects(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Error("empty path encoded")
	}
	if _, err := Encode([]Dir{East, West}); err == nil {
		t.Error("U-turn path encoded")
	}
	if _, err := Encode([]Dir{East, Local, East}); err == nil {
		t.Error("Local inside path encoded")
	}
}

func TestWalkUnterminated(t *testing.T) {
	var w Word
	w, _ = w.Push(Straight) // absolute north, then nothing
	if _, err := Walk(w); err == nil {
		t.Error("unterminated route walked without error")
	}
}

type fakeGeom struct {
	kx, ky int
	wrap   bool
}

func (g fakeGeom) Radix() (int, int) { return g.kx, g.ky }
func (g fakeGeom) Wrap() bool        { return g.wrap }

func applyPath(sx, sy int, path []Dir, g fakeGeom) (int, int) {
	for _, d := range path {
		dx, dy := d.Delta()
		sx += dx
		sy += dy
		if g.wrap {
			sx = ((sx % g.kx) + g.kx) % g.kx
			sy = ((sy % g.ky) + g.ky) % g.ky
		}
	}
	return sx, sy
}

func TestDimensionOrderMesh(t *testing.T) {
	g := fakeGeom{4, 4, false}
	path := DimensionOrder(g, 0, 0, 3, 2)
	if len(path) != 5 {
		t.Fatalf("path len = %d, want 5", len(path))
	}
	// X first, then Y.
	for i, d := range path {
		if i < 3 && d != East {
			t.Fatalf("step %d = %v, want E (x-first)", i, d)
		}
		if i >= 3 && d != North {
			t.Fatalf("step %d = %v, want N", i, d)
		}
	}
	if x, y := applyPath(0, 0, path, g); x != 3 || y != 2 {
		t.Fatalf("path ends at (%d,%d)", x, y)
	}
}

func TestDimensionOrderTorusShortWay(t *testing.T) {
	g := fakeGeom{4, 4, true}
	// 0 -> 3 on a radix-4 ring is one hop west, not three east.
	path := DimensionOrder(g, 0, 0, 3, 0)
	if len(path) != 1 || path[0] != West {
		t.Fatalf("path = %v, want [W]", path)
	}
	// Exact ties (distance 2 on a radix-4 ring) split by endpoint parity,
	// so both directions carry tie traffic.
	path = DimensionOrder(g, 0, 0, 2, 0) // parity even -> positive
	if len(path) != 2 || path[0] != East {
		t.Fatalf("tie path = %v, want [E E]", path)
	}
	path = DimensionOrder(g, 1, 0, 3, 0) // parity even -> positive
	if len(path) != 2 || path[0] != East {
		t.Fatalf("tie path = %v, want [E E]", path)
	}
	path = DimensionOrder(g, 0, 1, 2, 0) // parity odd -> negative
	if len(path) < 2 || path[0] != West {
		t.Fatalf("odd-parity tie path = %v, want westward", path)
	}
}

func TestComputeRejectsLoopback(t *testing.T) {
	if _, err := Compute(fakeGeom{4, 4, true}, 5, 5); err == nil {
		t.Error("loopback route computed")
	}
}

// Property: for random geometries and tile pairs, the encoded route walks
// from src to dst and fits the paper's 16-bit field on a 4x4 network.
func TestComputeWalkProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		g := fakeGeom{kx: 3 + rng.Intn(4), ky: 3 + rng.Intn(4), wrap: rng.Intn(2) == 0}
		n := g.kx * g.ky
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			continue
		}
		w, err := Compute(g, src, dst)
		if err != nil {
			t.Fatalf("%+v %d->%d: %v", g, src, dst, err)
		}
		path, err := Walk(w)
		if err != nil {
			t.Fatalf("walk: %v", err)
		}
		x, y := applyPath(src%g.kx, src/g.kx, path, g)
		if !g.wrap {
			// The mesh walk must also stay in bounds; applyPath does not
			// clamp, so recheck by replaying with bounds.
			cx, cy := src%g.kx, src/g.kx
			for _, d := range path {
				dx, dy := d.Delta()
				cx += dx
				cy += dy
				if cx < 0 || cx >= g.kx || cy < 0 || cy >= g.ky {
					t.Fatalf("mesh path leaves grid: %+v %d->%d %v", g, src, dst, path)
				}
			}
		}
		if got := y*g.kx + x; got != dst {
			t.Fatalf("%+v route %d->%d arrived at %d", g, src, dst, got)
		}
		if g.kx == 4 && g.ky == 4 && !w.FitsPaperField() {
			t.Fatalf("4x4 route %d->%d needs %d steps, exceeds 16-bit field", src, dst, w.Len())
		}
	}
}

// Property: Word push/pop behaves as a FIFO queue of 2-bit codes.
func TestWordFIFOProperty(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) > MaxSteps {
			raw = raw[:MaxSteps]
		}
		var w Word
		var err error
		for _, b := range raw {
			if w, err = w.Push(Code(b % 4)); err != nil {
				return false
			}
		}
		for _, b := range raw {
			var c Code
			c, w = w.Pop()
			if c != Code(b%4) {
				return false
			}
		}
		return w.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWordString(t *testing.T) {
	var w Word
	w, _ = w.Push(Left)
	w, _ = w.Push(Extract)
	if got := w.String(); got != "[lx]" {
		t.Fatalf("String = %q", got)
	}
	if got := len(w.Codes()); got != 2 {
		t.Fatalf("Codes len = %d", got)
	}
}

// TestComputeMatchesEncodedDimensionOrder pins the direct Word emission in
// Compute against the reference Encode(DimensionOrder(...)) construction,
// exhaustively over every (src, dst) pair on mesh and torus grids of
// several radices (including odd and rectangular ones, which exercise the
// wrap normalization and the half-ring parity tie-break).
func TestComputeMatchesEncodedDimensionOrder(t *testing.T) {
	grids := []fakeGeom{
		{4, 4, false}, {4, 4, true},
		{5, 5, true}, {8, 8, true},
		{3, 6, true}, {6, 3, false},
		{2, 2, true},
	}
	for _, g := range grids {
		tiles := g.kx * g.ky
		for src := 0; src < tiles; src++ {
			for dst := 0; dst < tiles; dst++ {
				if src == dst {
					continue
				}
				got, err := Compute(g, src, dst)
				if err != nil {
					t.Fatalf("%+v: Compute(%d,%d): %v", g, src, dst, err)
				}
				path := DimensionOrder(g, src%g.kx, src/g.kx, dst%g.kx, dst/g.kx)
				want, err := Encode(path)
				if err != nil {
					t.Fatalf("%+v: Encode(%d,%d): %v", g, src, dst, err)
				}
				if got != want {
					t.Fatalf("%+v: Compute(%d,%d) = %v, want %v (path %v)",
						g, src, dst, got, want, path)
				}
			}
		}
	}
}

// TestFirstStepMatchesDimensionOrder: FirstStep is the first element of
// DimensionOrder's path (Local for a tile to itself) for every tile pair
// of a 4×4 and a 5×5 mesh and torus, so the even torus's half-ring
// parity tie-break is covered.
func TestFirstStepMatchesDimensionOrder(t *testing.T) {
	for _, g := range []fakeGeom{{4, 4, false}, {4, 4, true}, {5, 5, false}, {5, 5, true}} {
		tiles := g.kx * g.ky
		for src := 0; src < tiles; src++ {
			for dst := 0; dst < tiles; dst++ {
				want := Local
				if path := DimensionOrder(g, src%g.kx, src/g.kx, dst%g.kx, dst/g.kx); len(path) > 0 {
					want = path[0]
				}
				if got := FirstStep(g, src, dst); got != want {
					t.Errorf("%+v: FirstStep(%d, %d) = %v, want %v", g, src, dst, got, want)
				}
			}
		}
	}
}

// TestComputeAllocFree is the alloc gate for the route encoder: Compute
// builds every route table entry and runs on each Port.Send once a link
// is dead, so it must not allocate at all.
func TestComputeAllocFree(t *testing.T) {
	// Convert to the interface once, outside the measured loop, the way
	// real callers hold a topology.Topology; otherwise the measurement
	// counts the test's own boxing of the fake geometry value.
	var g Geometry = fakeGeom{8, 8, true}
	pair := 0
	allocs := testing.AllocsPerRun(1000, func() {
		src := pair % 64
		dst := (pair*31 + 17) % 64
		if dst == src {
			dst = (dst + 1) % 64
		}
		pair++
		if _, err := Compute(g, src, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Compute allocates %.1f objects/op, want 0", allocs)
	}
}
