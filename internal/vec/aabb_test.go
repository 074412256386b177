package vec

import "testing"

func TestEmptyBox(t *testing.T) {
	b := Empty()
	if !b.IsEmpty() {
		t.Fatal("Empty() is not empty")
	}
	if b.Volume() != 0 {
		t.Errorf("empty volume = %v", b.Volume())
	}
	b = b.ExtendPoint(New(1, 2, 3))
	if b.IsEmpty() {
		t.Fatal("box still empty after ExtendPoint")
	}
	if !b.Contains(New(1, 2, 3)) {
		t.Error("box does not contain its only point")
	}
}

func TestExtendBox(t *testing.T) {
	a := Box(New(0, 0, 0), New(1, 1, 1))
	b := Box(New(2, -1, 0.5), New(3, 0.5, 2))
	u := a.ExtendBox(b)
	want := Box(New(0, -1, 0), New(3, 1, 2))
	if u != want {
		t.Errorf("ExtendBox = %v, want %v", u, want)
	}
}

func TestVolumeAndCenter(t *testing.T) {
	b := Box(New(0, 0, 0), New(2, 3, 4))
	if b.Volume() != 24 {
		t.Errorf("Volume = %v", b.Volume())
	}
	if b.Center() != (V3{1, 1.5, 2}) {
		t.Errorf("Center = %v", b.Center())
	}
}

// Property: the eight octants of a box exactly tile it (equal child
// volumes summing to the parent, disjoint interiors).
func TestOctantsTileParent(t *testing.T) {
	b := Box(New(-1, -2, -3), New(5, 4, 3))
	var sum float64
	for i := 0; i < 8; i++ {
		child := b.Octant(i)
		sum += child.Volume()
		if !approx(child.Volume(), b.Volume()/8) {
			t.Errorf("octant %d volume %v, want %v", i, child.Volume(), b.Volume()/8)
		}
	}
	if !approx(sum, b.Volume()) {
		t.Errorf("octants sum to %v, parent is %v", sum, b.Volume())
	}
}

func TestIntersectRayThroughBox(t *testing.T) {
	b := Box(New(0, 0, 0), New(1, 1, 1))
	tEnter, tExit, hit := b.IntersectRay(New(-1, 0.5, 0.5), New(1, 0, 0))
	if !hit {
		t.Fatal("ray through box reported miss")
	}
	if !approx(tEnter, 1) || !approx(tExit, 2) {
		t.Errorf("enter/exit = %v/%v, want 1/2", tEnter, tExit)
	}
}

func TestIntersectRayMiss(t *testing.T) {
	b := Box(New(0, 0, 0), New(1, 1, 1))
	if _, _, hit := b.IntersectRay(New(-1, 5, 0.5), New(1, 0, 0)); hit {
		t.Error("ray far above box reported hit")
	}
	// Parallel ray outside a slab.
	if _, _, hit := b.IntersectRay(New(0.5, 2, 0.5), New(1, 0, 0)); hit {
		t.Error("parallel outside ray reported hit")
	}
}

func TestIntersectRayFromInside(t *testing.T) {
	b := Box(New(0, 0, 0), New(1, 1, 1))
	tEnter, tExit, hit := b.IntersectRay(New(0.5, 0.5, 0.5), New(0, 0, 1))
	if !hit {
		t.Fatal("ray from inside reported miss")
	}
	if tEnter > 0 {
		t.Errorf("enter from inside should be <= 0, got %v", tEnter)
	}
	if !approx(tExit, 0.5) {
		t.Errorf("exit = %v, want 0.5", tExit)
	}
}
