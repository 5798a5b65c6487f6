package route

// Table is an immutable source-route table over a geometry, holding every
// fault-free route Compute would produce. A dimension-ordered route
// depends only on the signed offset between its endpoints: Compute
// normalizes each dimension's delta on its own, and its half-ring
// tie-break parity (sx+sy+dx+dy) mod 2 equals the parity of the offset
// sum (dx−sx)+(dy−sy). So the table stores one word per offset, a
// (2kx−1)×(2ky−1) array, rather than one per (src, dst) pair: O(tiles)
// to build and to hold. Routes are a pure function of the geometry
// (Radix, Wrap), so one table can be shared read-only across every
// network of the same shape — concurrent sweep points and forked
// campaign replicas.
type Table struct {
	// pos[t] = y·(2kx−1) + x for tile t = y·kx + x, so the offset index
	// of a pair is pos[dst] − pos[src] + centre with no division.
	pos    []int32
	centre int32  // index of offset (0, 0)
	words  []Word // row-major by offset; the zero Word means no route
}

// BuildTable computes the route table for a geometry with the given tile
// count, normally kx·ky; ids past the kx×ky grid are outside the table.
// Offsets without a route — zero (src == dst, handled at the port) and
// routes longer than MaxSteps — are stored as the zero Word, which no
// valid route equals because every route ends in Extract; Lookup reports
// them absent and the caller falls back to Compute.
func BuildTable(g Geometry, tiles int) *Table {
	kx, ky := g.Radix()
	stride := 2*kx - 1
	t := &Table{
		pos:    make([]int32, min(tiles, kx*ky)),
		centre: int32((ky-1)*stride + kx - 1),
		words:  make([]Word, stride*(2*ky-1)),
	}
	for id := range t.pos {
		t.pos[id] = int32(id/kx*stride + id%kx)
	}
	for oy := 1 - ky; oy < ky; oy++ {
		sy, dy := max(0, -oy), max(0, oy)
		for ox := 1 - kx; ox < kx; ox++ {
			sx, dx := max(0, -ox), max(0, ox)
			if w, err := Compute(g, sy*kx+sx, dy*kx+dx); err == nil {
				t.words[int(t.centre)+oy*stride+ox] = w
			}
		}
	}
	return t
}

// Tiles reports the tile count the table was built for.
func (t *Table) Tiles() int { return len(t.pos) }

// Lookup returns the precomputed route from src to dst. ok is false for
// pairs outside the table or without a fault-free route.
func (t *Table) Lookup(src, dst int) (Word, bool) {
	if uint(src) >= uint(len(t.pos)) || uint(dst) >= uint(len(t.pos)) {
		return Word{}, false
	}
	w := t.words[t.pos[dst]-t.pos[src]+t.centre]
	return w, !w.Empty()
}
