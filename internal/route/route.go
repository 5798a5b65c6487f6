// Package route implements the source-routing scheme of Section 2.1 of the
// paper: a route is a string of 2-bit steps, one consumed per hop, each
// selecting left, right, straight, or extract relative to the flit's
// direction of travel.
//
// The first step of a route is consumed by the injection (tile) input
// controller, where there is no direction of travel yet; there the 2-bit
// code names an absolute direction (north, east, south, west). Subsequent
// steps are relative turns, which is why 2 bits suffice even though a router
// has five output ports: a flit never makes a U-turn, so from any through
// direction only four outputs (three turns plus extract) are reachable.
//
// The paper packs routes into a 16-bit field (8 steps), enough for any
// dimension-ordered route on the 16-tile example network. Word stores up to
// 32 steps so the same code drives larger research configurations; Bits16
// reports the packed 16-bit field and whether the route honours the paper's
// budget.
package route

import (
	"fmt"
	"strings"
)

// Dir is a compass direction of travel (or the local tile port).
type Dir uint8

// Directions. The coordinate convention is x increasing east and y
// increasing north; tile id = y*width + x.
const (
	North Dir = iota
	East
	South
	West
	Local
)

// NumDirs is the number of compass directions.
const NumDirs = 4

// String names the direction.
func (d Dir) String() string {
	switch d {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	case Local:
		return "L"
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// Opposite returns the reverse direction. Local is its own opposite.
func (d Dir) Opposite() Dir {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	return Local
}

// Left returns the direction after a left turn while heading d.
func (d Dir) Left() Dir {
	switch d {
	case North:
		return West
	case West:
		return South
	case South:
		return East
	case East:
		return North
	}
	return Local
}

// Right returns the direction after a right turn while heading d.
func (d Dir) Right() Dir { return d.Left().Opposite() }

// Delta reports the coordinate step of the direction.
func (d Dir) Delta() (dx, dy int) {
	switch d {
	case North:
		return 0, 1
	case South:
		return 0, -1
	case East:
		return 1, 0
	case West:
		return -1, 0
	}
	return 0, 0
}

// Code is one 2-bit route step.
type Code uint8

// Route step codes. At a through input they read as turns; at the injection
// input they read as absolute directions via AbsDir.
const (
	Straight Code = iota
	Left
	Right
	Extract
)

// String names the code.
func (c Code) String() string {
	switch c {
	case Straight:
		return "s"
	case Left:
		return "l"
	case Right:
		return "r"
	case Extract:
		return "x"
	}
	return fmt.Sprintf("Code(%d)", uint8(c))
}

// AbsDir interprets a code consumed at the injection input as an absolute
// direction: the four code points are reused to name north, east, south,
// and west.
func AbsDir(c Code) Dir {
	switch c {
	case Straight:
		return North
	case Left:
		return East
	case Right:
		return South
	case Extract:
		return West
	}
	return Local
}

// absCode is the inverse of AbsDir.
func absCode(d Dir) (Code, error) {
	switch d {
	case North:
		return Straight, nil
	case East:
		return Left, nil
	case South:
		return Right, nil
	case West:
		return Extract, nil
	}
	return 0, fmt.Errorf("route: no absolute code for direction %v", d)
}

// Turn applies a turn code to a heading and returns the output direction.
// Extract returns Local.
func Turn(heading Dir, c Code) Dir {
	switch c {
	case Straight:
		return heading
	case Left:
		return heading.Left()
	case Right:
		return heading.Right()
	}
	return Local
}

// turnCode finds the code that turns heading into next.
func turnCode(heading, next Dir) (Code, error) {
	switch next {
	case heading:
		return Straight, nil
	case heading.Left():
		return Left, nil
	case heading.Right():
		return Right, nil
	case Local:
		return Extract, nil
	}
	return 0, fmt.Errorf("route: illegal turn %v -> %v (U-turn?)", heading, next)
}

// MaxSteps is the capacity of a Word in 2-bit steps.
const MaxSteps = 32

// PaperSteps is the step capacity of the paper's 16-bit route field.
const PaperSteps = 8

// Word is a packed source route: up to MaxSteps 2-bit codes, consumed
// low-order first, one per hop. The zero Word is the empty route.
type Word struct {
	bits uint64
	n    uint8
}

// Len reports the number of remaining steps.
func (w Word) Len() int { return int(w.n) }

// Empty reports whether no steps remain.
func (w Word) Empty() bool { return w.n == 0 }

// errWordOverflow is shared rather than built per call: BuildTable
// meets it once for every offset too far for a Word, thousands per table
// on a large torus.
var errWordOverflow = fmt.Errorf("route: word overflow beyond %d steps", MaxSteps)

// Push appends a step to the end of the route.
func (w Word) Push(c Code) (Word, error) {
	if w.n >= MaxSteps {
		return w, errWordOverflow
	}
	w.bits |= uint64(c&3) << (2 * uint(w.n))
	w.n++
	return w, nil
}

// Pop consumes the next step, as a router input controller does when a head
// flit arrives: it strips the low 2 bits and shifts the field.
func (w Word) Pop() (Code, Word) {
	if w.n == 0 {
		// An exhausted route reads as Extract: a malformed packet is
		// delivered to whatever tile it has reached rather than looping.
		return Extract, w
	}
	c := Code(w.bits & 3)
	w.bits >>= 2
	w.n--
	return c, w
}

// Peek reports the next step without consuming it.
func (w Word) Peek() Code {
	c, _ := w.Pop()
	return c
}

// Bits16 reports the route packed into the paper's 16-bit field and whether
// it fits (at most PaperSteps steps).
func (w Word) Bits16() (uint16, bool) {
	return uint16(w.bits & 0xFFFF), w.n <= PaperSteps
}

// FitsPaperField reports whether the route fits the 16-bit route field of
// the paper's flit format.
func (w Word) FitsPaperField() bool { return w.n <= PaperSteps }

// String renders the remaining steps in consumption order.
func (w Word) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	cur := w
	for !cur.Empty() {
		var c Code
		c, cur = cur.Pop()
		sb.WriteString(c.String())
	}
	sb.WriteByte(']')
	return sb.String()
}

// Codes expands the remaining steps into a slice, in consumption order.
func (w Word) Codes() []Code {
	out := make([]Code, 0, w.Len())
	cur := w
	for !cur.Empty() {
		var c Code
		c, cur = cur.Pop()
		out = append(out, c)
	}
	return out
}

// Encode converts a path of absolute hop directions (ending at the
// destination router, which then extracts) into a route word. The path must
// be non-empty and free of U-turns. The emitted word is:
//
//	absolute(first hop), turn(hop1->hop2), ..., Extract
func Encode(path []Dir) (Word, error) {
	var w Word
	if len(path) == 0 {
		return w, fmt.Errorf("route: empty path (loopback is handled at the port)")
	}
	c, err := absCode(path[0])
	if err != nil {
		return w, err
	}
	if w, err = w.Push(c); err != nil {
		return w, err
	}
	for i := 1; i < len(path); i++ {
		tc, err := turnCode(path[i-1], path[i])
		if err != nil {
			return w, err
		}
		if tc == Extract {
			return w, fmt.Errorf("route: Local direction inside path at step %d", i)
		}
		if w, err = w.Push(tc); err != nil {
			return w, err
		}
	}
	return w.Push(Extract)
}

// Walk replays a route word from a source coordinate, returning the absolute
// directions taken. It is the software model of what the chain of input
// controllers does in hardware, used by tests and by the reservation
// scheduler.
func Walk(w Word) ([]Dir, error) {
	var dirs []Dir
	heading := Local
	first := true
	for !w.Empty() {
		var c Code
		c, w = w.Pop()
		if first {
			heading = AbsDir(c)
			dirs = append(dirs, heading)
			first = false
			continue
		}
		next := Turn(heading, c)
		if next == Local {
			return dirs, nil
		}
		heading = next
		dirs = append(dirs, heading)
	}
	return dirs, fmt.Errorf("route: word ended without Extract")
}

// Geometry describes the torus/mesh coordinate space a path is computed in.
// Both topology kinds in internal/topology implement it.
type Geometry interface {
	// Radix reports the tile counts in x and y.
	Radix() (kx, ky int)
	// Wrap reports whether wraparound (torus) channels exist.
	Wrap() bool
}

// DimensionOrder computes the dimension-ordered (x first, then y) path of
// absolute directions from (sx, sy) to (dx, dy). On a torus it takes the
// shorter way around each ring; exact half-ring ties are split
// deterministically by endpoint parity, so tie traffic loads both ring
// directions evenly (sending every tie the same way would halve the
// usable wrap bandwidth). The returned path is empty when source equals
// destination.
func DimensionOrder(g Geometry, sx, sy, dx, dy int) []Dir {
	kx, ky := g.Radix()
	var path []Dir
	tieNeg := (sx+sy+dx+dy)%2 != 0
	appendSteps := func(delta, k int, pos, neg Dir) {
		if delta == 0 {
			return
		}
		if g.Wrap() {
			// Normalize into (-k/2, k/2].
			delta = ((delta % k) + k) % k
			if delta > k/2 {
				delta -= k
			}
			if k%2 == 0 && delta == k/2 && tieNeg {
				delta = -k / 2
			}
		}
		d, n := pos, delta
		if delta < 0 {
			d, n = neg, -delta
		}
		for i := 0; i < n; i++ {
			path = append(path, d)
		}
	}
	appendSteps(dx-sx, kx, East, West)
	appendSteps(dy-sy, ky, North, South)
	return path
}

// FirstStep reports the first direction of the dimension-ordered path
// between two tiles, Local when they are the same tile: DimensionOrder's
// first step, with its torus tie rule, without building the path.
func FirstStep(g Geometry, src, dst int) Dir {
	switch dirX, nx, dirY, ny := tileSteps(g, src, dst); {
	case nx > 0:
		return dirX
	case ny > 0:
		return dirY
	}
	return Local
}

// tileSteps reduces a tile pair (id = y*kx + x) to the direction and hop
// count of each dimension of its dimension-ordered path (dimSteps).
func tileSteps(g Geometry, src, dst int) (dirX Dir, nx int, dirY Dir, ny int) {
	kx, ky := g.Radix()
	sx, sy := src%kx, src/kx
	dx, dy := dst%kx, dst/kx
	tieNeg, wrap := (sx+sy+dx+dy)%2 != 0, g.Wrap()
	dirX, nx = dimSteps(dx-sx, kx, East, West, wrap, tieNeg)
	dirY, ny = dimSteps(dy-sy, ky, North, South, wrap, tieNeg)
	return dirX, nx, dirY, ny
}

// dimSteps reduces one dimension's coordinate delta to a direction and a
// hop count, applying the same torus normalization and parity tie-break as
// DimensionOrder: delta lands in (-k/2, k/2], and an exact half-ring tie on
// an even ring goes negative when tieNeg.
func dimSteps(delta, k int, pos, neg Dir, wrap, tieNeg bool) (Dir, int) {
	if delta == 0 {
		return pos, 0
	}
	if wrap {
		// Normalize into (-k/2, k/2].
		delta = ((delta % k) + k) % k
		if delta > k/2 {
			delta -= k
		}
		if k%2 == 0 && delta == k/2 && tieNeg {
			delta = -k / 2
		}
		if delta == 0 {
			return pos, 0
		}
	}
	if delta < 0 {
		return neg, -delta
	}
	return pos, delta
}

// Compute encodes the dimension-ordered route between two tiles in a
// width×height coordinate grid, using id = y*width + x. It is the
// destination-to-route translation the paper places in client-local logic.
//
// The route is emitted directly into the packed Word — absolute code for
// the first hop, straights within a dimension, one turn at the x→y corner,
// Extract last — without materializing the intermediate direction path, so
// building a route table and rerouting around faults do not allocate.
// Compute(g, s, d) equals Encode(DimensionOrder(g, ...)) for every pair;
// the route tests pin that equivalence.
func Compute(g Geometry, src, dst int) (Word, error) {
	if src == dst {
		return Word{}, fmt.Errorf("route: src == dst (%d); loopback is handled at the port", src)
	}
	dirX, nx, dirY, ny := tileSteps(g, src, dst)
	if nx+ny == 0 {
		return Word{}, fmt.Errorf("route: empty path (loopback is handled at the port)")
	}
	var w Word
	var err error
	heading := Local
	for dim := 0; dim < 2; dim++ {
		d, n := dirX, nx
		if dim == 1 {
			d, n = dirY, ny
		}
		for hop := 0; hop < n; hop++ {
			var c Code
			if heading == Local {
				c, err = absCode(d)
			} else {
				c, err = turnCode(heading, d)
			}
			if err != nil {
				return Word{}, err
			}
			if w, err = w.Push(c); err != nil {
				return Word{}, err
			}
			heading = d
		}
	}
	return w.Push(Extract)
}
