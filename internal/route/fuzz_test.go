package route

import "testing"

// FuzzWordPushPop fuzzes the packed route word: any sequence of pushed
// codes must pop back identically and never corrupt neighbouring entries.
func FuzzWordPushPop(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{3, 3, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > MaxSteps {
			raw = raw[:MaxSteps]
		}
		var w Word
		var err error
		for _, b := range raw {
			if w, err = w.Push(Code(b % 4)); err != nil {
				t.Fatalf("push: %v", err)
			}
		}
		if w.Len() != len(raw) {
			t.Fatalf("len = %d, want %d", w.Len(), len(raw))
		}
		for i, b := range raw {
			var c Code
			c, w = w.Pop()
			if c != Code(b%4) {
				t.Fatalf("pop %d = %v, want %v", i, c, Code(b%4))
			}
		}
		if !w.Empty() {
			t.Fatal("word not empty")
		}
	})
}

// FuzzDimensionOrder fuzzes path computation: paths must terminate at the
// destination, never exceed the diameter, and encode/walk losslessly.
func FuzzDimensionOrder(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(0), uint8(15), true)
	f.Add(uint8(5), uint8(3), uint8(7), uint8(2), false)
	f.Fuzz(func(t *testing.T, kxr, kyr, srcR, dstR uint8, wrap bool) {
		kx := 3 + int(kxr)%6
		ky := 3 + int(kyr)%6
		n := kx * ky
		src, dst := int(srcR)%n, int(dstR)%n
		g := fakeGeom{kx: kx, ky: ky, wrap: wrap}
		path := DimensionOrder(g, src%kx, src/kx, dst%kx, dst/kx)
		if src == dst {
			if len(path) != 0 {
				t.Fatalf("self path = %v", path)
			}
			return
		}
		if len(path) > kx+ky {
			t.Fatalf("path longer than diameter: %d", len(path))
		}
		x, y := applyPath(src%kx, src/kx, path, g)
		if y*kx+x != dst {
			t.Fatalf("path %v from %d ends at %d, want %d", path, src, y*kx+x, dst)
		}
		w, err := Encode(path)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		dirs, err := Walk(w)
		if err != nil {
			t.Fatalf("walk: %v", err)
		}
		if len(dirs) != len(path) {
			t.Fatalf("walk %v != path %v", dirs, path)
		}
	})
}

// FuzzTable fuzzes the offset-keyed route table against Compute: for any
// geometry up to 40×40, mesh or torus, and any pair of tiles, Lookup
// must return Compute's word, and miss exactly where Compute fails.
func FuzzTable(f *testing.F) {
	f.Add(uint8(4), uint8(4), true, uint16(0), uint16(15))
	f.Add(uint8(31), uint8(31), true, uint16(0), uint16(528))
	f.Add(uint8(0), uint8(5), false, uint16(3), uint16(3))
	f.Add(uint8(39), uint8(16), true, uint16(7), uint16(600))
	f.Fuzz(func(t *testing.T, kxr, kyr uint8, wrap bool, srcR, dstR uint16) {
		kx, ky := 1+int(kxr)%40, 1+int(kyr)%40
		tiles := kx * ky
		src, dst := int(srcR)%tiles, int(dstR)%tiles
		g := fakeGeom{kx: kx, ky: ky, wrap: wrap}
		w, ok := BuildTable(g, tiles).Lookup(src, dst)
		want, err := Compute(g, src, dst)
		if ok != (err == nil) || (ok && w != want) {
			t.Fatalf("%+v: Lookup(%d,%d) = %v,%v; Compute = %v,%v", g, src, dst, w, ok, want, err)
		}
	})
}
