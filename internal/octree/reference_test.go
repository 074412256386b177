package octree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/par"
	"repro/internal/sortx"
	"repro/internal/vec"
)

// refBuild is Build as it was before the Builder — fresh scratch every
// call, a bounding box through AABB.ExtendPoint, a closure call per key
// — kept verbatim, with its carver, as the oracle of
// TestBuilderMatchesReference.
func refBuild(points []vec.V3, cfg Config) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("octree: no points to partition")
	}

	// Pass 1 (parallel): bounding box.
	bounds := par.MapReduce(len(points), par.Workers(),
		vec.Empty,
		func(b vec.AABB, lo, hi int) vec.AABB {
			for i := lo; i < hi; i++ {
				b = b.ExtendPoint(points[i])
			}
			return b
		},
		func(a, b vec.AABB) vec.AABB { return a.ExtendBox(b) },
	)
	// Make the root cell cubical so octants stay cubical at every level
	// (equal per-level cell volumes make density comparisons uniform),
	// then pad so max-face points map inside the last cell row.
	size := bounds.Size().MaxComponent()
	if size == 0 {
		size = 1 // all points coincident; any box works
	}
	size *= 1 + cfg.Pad
	c := bounds.Center()
	half := size / 2
	root := vec.Box(
		vec.New(c.X-half, c.Y-half, c.Z-half),
		vec.New(c.X+half, c.Y+half, c.Z+half),
	)

	// Pass 2 (parallel): Morton codes at the maximal level, packed with
	// the source index into (key, payload) pairs for the sort.
	n := len(points)
	cells := uint64(1) << uint(cfg.MaxLevel)
	pairs := make([]sortx.KV, n)
	scale := float64(cells) / size
	par.For(n, par.Workers(), func(i int) {
		p := points[i]
		cx := cellCoord((p.X-root.Min.X)*scale, cells)
		cy := cellCoord((p.Y-root.Min.Y)*scale, cells)
		cz := cellCoord((p.Z-root.Min.Z)*scale, cells)
		// Codes compare as if computed at MaxLevel resolution; childAt
		// below uses cfg.MaxLevel consistently.
		pairs[i] = sortx.KV{K: Encode(cx, cy, cz), V: int64(i)}
	})

	// Pass 3 (parallel): stable radix sort by code. Stability makes the
	// whole build independent of the worker count: equal codes keep
	// input order, so every downstream pass sees the same permutation.
	sortx.Pairs(pairs, par.Workers())

	// The carve's binary-search splits assume monotone codes, and a
	// violated assumption would carve a silently corrupt tree — so
	// spend one cheap parallel scan keeping the invariant loud (the
	// role the serial carve's partition panic used to play).
	sorted := par.MapReduce(n, par.Workers(),
		func() bool { return true },
		func(ok bool, lo, hi int) bool {
			if lo == 0 {
				lo = 1
			}
			for i := lo; i < hi; i++ {
				if pairs[i-1].K > pairs[i].K {
					return false
				}
			}
			return ok
		},
		func(a, b bool) bool { return a && b },
	)
	if !sorted {
		panic("octree: Morton codes not sorted (sortx invariant violated)")
	}

	// Pass 4 (parallel): carve the tree out of the sorted array.
	// Independent subtrees build concurrently into local buffers that
	// are stitched back in depth-first order, so the node layout is
	// identical at every worker count.
	t := &Tree{
		Bounds:   root,
		MaxLevel: cfg.MaxLevel,
		LeafCap:  cfg.LeafCap,
	}
	workers := par.Workers()
	cv := &refCarver{pairs: pairs, cfg: cfg}
	if workers > 1 {
		cv.grp = newRefGroup(workers)
		// Aim for several tasks per worker so irregular subtrees
		// balance; below the grain a subtree is carved serially.
		cv.grain = int64(n) / int64(workers*4)
		if cv.grain < 4096 {
			cv.grain = 4096
		}
	}
	t.Nodes = cv.carve(Node{Bounds: root, FirstChild: NoChild}, 0, int64(n))

	// Pass 5 (parallel): order leaves by increasing density and emit the
	// grouped, density-sorted point array (the paper's particle-file
	// layout). The density sort reuses sortx via an order-preserving
	// float-to-uint key; the gather fans out over leaf groups, whose
	// destination ranges are disjoint by construction.
	var leaves []int32
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf() && t.Nodes[i].Count > 0 {
			leaves = append(leaves, int32(i))
		}
	}
	byDensity := make([]sortx.KV, len(leaves))
	for k, li := range leaves {
		byDensity[k] = sortx.KV{K: sortx.Float64Key(t.Nodes[li].Density), V: int64(li)}
	}
	sortx.Pairs(byDensity, par.Workers())
	for k := range byDensity {
		leaves[k] = int32(byDensity[k].V)
	}

	t.Points = make([]vec.V3, n)
	t.OrigIndex = make([]int64, n)
	t.LeavesByDensity = leaves
	t.LeafOffsets = make([]int64, len(leaves)+1)
	pos := int64(0)
	for k, li := range leaves {
		t.LeafOffsets[k] = pos
		pos += t.Nodes[li].Count
	}
	t.LeafOffsets[len(leaves)] = pos
	par.ForChunks(len(leaves), par.Workers(), func(klo, khi int) {
		for k := klo; k < khi; k++ {
			node := &t.Nodes[leaves[k]]
			// node.Offset holds the group start in the Morton-sorted
			// order; rewrite it to the density-sorted order.
			src := node.Offset
			dst := t.LeafOffsets[k]
			for j := int64(0); j < node.Count; j++ {
				oi := pairs[src+j].V
				t.Points[dst+j] = points[oi]
				t.OrigIndex[dst+j] = oi
			}
			node.Offset = dst
		}
	})
	return t, nil
}

// refCarver is the carver as refBuild used it: every node buffer fresh.
// It carves the tree out of the Morton-sorted pair array. pairs is
// shared, read-only, and positional: pairs[i].K is the code of the
// i-th sorted point. A nil grp (or subtree sizes at or below grain)
// means serial depth-first carving; otherwise the eight child subtrees
// of a node are carved concurrently on the group and stitched back in
// child order, which reproduces the serial depth-first node layout
// exactly — concurrency changes only the wall clock, never the tree.
type refCarver struct {
	pairs []sortx.KV
	cfg   Config
	grain int64
	grp   *refGroup
}

// fill sets the per-node statistics every node carries, leaf or not.
func (cv *refCarver) fill(node *Node, lo, hi int64) {
	node.Offset = lo
	node.Count = hi - lo
	vol := node.Bounds.Volume()
	if vol > 0 {
		node.Density = float64(node.Count) / vol
	} else {
		node.Density = math.Inf(1)
	}
}

// split returns the nine boundaries of the eight child ranges of
// [lo,hi) at the given level. The Morton sort makes each child's
// points contiguous and the child id non-decreasing over the range, so
// each boundary is a binary search — O(log n) per child instead of the
// linear scan the serial carve used.
func (cv *refCarver) split(lo, hi int64, level int) [9]int64 {
	var s [9]int64
	s[0] = lo
	maxLevel := cv.cfg.MaxLevel
	for c := 0; c < 8; c++ {
		base := s[c]
		k := sort.Search(int(hi-base), func(i int) bool {
			return childAt(cv.pairs[base+int64(i)].K, level, maxLevel) > c
		})
		s[c+1] = base + int64(k)
	}
	return s
}

// carve builds the subtree rooted at root, whose points occupy sorted
// positions [lo,hi), and returns its nodes in depth-first layout with
// the root at index 0 and FirstChild indices local to the returned
// slice. Offsets stored here are provisional (Morton order); Build
// rewrites them in density order afterwards.
func (cv *refCarver) carve(root Node, lo, hi int64) []Node {
	if cv.grp == nil || hi-lo <= cv.grain {
		nodes := []Node{root}
		cv.carveSerial(&nodes, 0, lo, hi)
		return nodes
	}
	cv.fill(&root, lo, hi)
	if hi-lo <= int64(cv.cfg.LeafCap) || int(root.Level) >= cv.cfg.MaxLevel {
		return []Node{root}
	}
	// Fan the eight children out on the group; each carves into its own
	// buffer. Serial depth-first order is [root, child 0..7,
	// descendants(0), descendants(1), ...] — children first (they are
	// appended when the parent expands), each child's descendant block
	// following in child order — so stitching the buffers back in child
	// order with relabeled FirstChild indices is layout-identical to
	// the serial carve.
	splits := cv.split(lo, hi, int(root.Level))
	var sub [8][]Node
	tasks := make([]func(), 8)
	for c := 0; c < 8; c++ {
		c := c
		child := Node{
			Bounds:     root.Bounds.Octant(c),
			FirstChild: NoChild,
			Level:      root.Level + 1,
		}
		tasks[c] = func() { sub[c] = cv.carve(child, splits[c], splits[c+1]) }
	}
	cv.grp.Do(tasks...)

	total := 9
	var descStart [8]int32
	for c := 0; c < 8; c++ {
		descStart[c] = int32(total)
		total += len(sub[c]) - 1
	}
	out := make([]Node, 0, total)
	root.FirstChild = 1
	out = append(out, root)
	// relabel maps a child-local node index (>= 1; nothing points back
	// at a subtree's root) into the stitched layout.
	relabel := func(nd Node, c int) Node {
		if nd.FirstChild != NoChild {
			nd.FirstChild = descStart[c] + nd.FirstChild - 1
		}
		return nd
	}
	for c := 0; c < 8; c++ {
		out = append(out, relabel(sub[c][0], c))
	}
	for c := 0; c < 8; c++ {
		for _, nd := range sub[c][1:] {
			out = append(out, relabel(nd, c))
		}
	}
	return out
}

// carveSerial recursively subdivides (*nodes)[idx], whose points occupy
// sorted positions [lo,hi) — the serial depth-first carve, appending to
// a local buffer.
func (cv *refCarver) carveSerial(nodes *[]Node, idx int32, lo, hi int64) {
	node := &(*nodes)[idx]
	cv.fill(node, lo, hi)
	if hi-lo <= int64(cv.cfg.LeafCap) || int(node.Level) >= cv.cfg.MaxLevel {
		return
	}

	level := int(node.Level)
	first := int32(len(*nodes))
	node.FirstChild = first
	bounds := node.Bounds
	childLevel := node.Level + 1
	for c := 0; c < 8; c++ {
		*nodes = append(*nodes, Node{
			Bounds:     bounds.Octant(c),
			FirstChild: NoChild,
			Level:      childLevel,
		})
	}
	splits := cv.split(lo, hi, level)
	for c := 0; c < 8; c++ {
		cv.carveSerial(nodes, first+int32(c), splits[c], splits[c+1])
	}
}

// refGroup is the oracle's own bounded fork-join, independent of the
// par team: Do runs its tasks and returns when all have finished. A
// task after the first runs on a goroutine of its own while the group
// has a free slot across every nested Do (the caller counts as one
// worker); any other task runs inline, the first one last, so
// recursion never blocks on the budget.
type refGroup struct{ slots chan struct{} }

func newRefGroup(workers int) *refGroup {
	return &refGroup{slots: make(chan struct{}, workers-1)}
}

func (g *refGroup) Do(tasks ...func()) {
	var wg sync.WaitGroup
	for _, task := range tasks[1:] {
		select {
		case g.slots <- struct{}{}:
			wg.Add(1)
			go func(task func()) {
				defer func() { <-g.slots; wg.Done() }()
				task()
			}(task)
		default:
			task()
		}
	}
	tasks[0]()
	wg.Wait()
}

// treeDiff compares every field of two trees by bits and lengths and
// names the first difference, or returns "".
func treeDiff(got, want *Tree) string {
	bits := math.Float64bits
	v3 := func(a, b vec.V3) bool {
		return bits(a.X) == bits(b.X) && bits(a.Y) == bits(b.Y) && bits(a.Z) == bits(b.Z)
	}
	box := func(a, b vec.AABB) bool { return v3(a.Min, b.Min) && v3(a.Max, b.Max) }
	switch {
	case !box(got.Bounds, want.Bounds):
		return fmt.Sprintf("Bounds %v, want %v", got.Bounds, want.Bounds)
	case got.MaxLevel != want.MaxLevel || got.LeafCap != want.LeafCap:
		return fmt.Sprintf("MaxLevel/LeafCap %d/%d, want %d/%d", got.MaxLevel, got.LeafCap, want.MaxLevel, want.LeafCap)
	case len(got.Nodes) != len(want.Nodes):
		return fmt.Sprintf("%d nodes, want %d", len(got.Nodes), len(want.Nodes))
	case len(got.Points) != len(want.Points) || len(got.OrigIndex) != len(want.OrigIndex):
		return fmt.Sprintf("%d points and %d indices, want %d and %d", len(got.Points), len(got.OrigIndex), len(want.Points), len(want.OrigIndex))
	case len(got.LeavesByDensity) != len(want.LeavesByDensity):
		return fmt.Sprintf("%d leaves, want %d", len(got.LeavesByDensity), len(want.LeavesByDensity))
	case len(got.LeafOffsets) != len(want.LeafOffsets):
		return fmt.Sprintf("%d leaf offsets, want %d", len(got.LeafOffsets), len(want.LeafOffsets))
	}
	for i := range want.Nodes {
		g, w := got.Nodes[i], want.Nodes[i]
		if !box(g.Bounds, w.Bounds) || g.FirstChild != w.FirstChild || g.Level != w.Level ||
			g.Offset != w.Offset || g.Count != w.Count || bits(g.Density) != bits(w.Density) {
			return fmt.Sprintf("node %d is %+v, want %+v", i, g, w)
		}
	}
	for i := range want.Points {
		if !v3(got.Points[i], want.Points[i]) || got.OrigIndex[i] != want.OrigIndex[i] {
			return fmt.Sprintf("point %d is %v (orig %d), want %v (orig %d)", i, got.Points[i], got.OrigIndex[i], want.Points[i], want.OrigIndex[i])
		}
	}
	for k := range want.LeavesByDensity {
		if got.LeavesByDensity[k] != want.LeavesByDensity[k] {
			return fmt.Sprintf("leaf %d is node %d, want %d", k, got.LeavesByDensity[k], want.LeavesByDensity[k])
		}
	}
	for k := range want.LeafOffsets {
		if got.LeafOffsets[k] != want.LeafOffsets[k] {
			return fmt.Sprintf("leaf offset %d is %d, want %d", k, got.LeafOffsets[k], want.LeafOffsets[k])
		}
	}
	return ""
}

// columns splits points into the three columns BuildColumns reads.
func columns(pts []vec.V3) (x, y, z []float64) {
	x, y, z = make([]float64, len(pts)), make([]float64, len(pts)), make([]float64, len(pts))
	for i, p := range pts {
		x[i], y[i], z[i] = p.X, p.Y, p.Z
	}
	return
}

// referenceInputs are the point sets of the differential test: sizes
// on both sides of where sortx once fell back to a comparison sort
// (2048) and of the carve grain (4096), one large enough to fan the carve out twice,
// coincident points (all, and a block of duplicates among others),
// points on the bounding box's max faces — ending on one, so that the
// last chunk of the bounding-box pass holds an extreme at every worker
// count — a flat axis, and signed zeros.
func referenceInputs() map[string][]vec.V3 {
	in := map[string][]vec.V3{}
	// 4, 8, 12 and 15 points at 3 and 7 workers are fewer ceil-sized
	// chunks than workers: the parallel folds must not merge a partial
	// that no chunk filled (the sortedness fold read it as "unsorted").
	for _, n := range []int{1, 4, 8, 12, 15, 2047, 2048, 2049, 4095, 4096, 4097, 40_000} {
		in[fmt.Sprintf("gaussian-%d", n)] = randomPoints(n, int64(n))
	}
	same := make([]vec.V3, 3000)
	for i := range same {
		same[i] = vec.New(0.25, -1, 7)
	}
	in["coincident"] = same
	dup := randomPoints(9000, 5)
	for i := 2000; i < 5000; i++ {
		dup[i] = dup[1999]
	}
	in["duplicates"] = dup
	faces := randomPoints(6000, 6)
	b := vec.Empty()
	for _, p := range faces {
		b = b.ExtendPoint(p)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 600; i++ {
		p := &faces[rng.Intn(len(faces))]
		switch i % 3 {
		case 0:
			p.X = b.Max.X
		case 1:
			p.Y = b.Max.Y
		default:
			p.Z = b.Max.Z
		}
	}
	faces[len(faces)-1] = b.Max.Add(vec.New(0.5, 0.25, 0.125)) // the corner, and the last point read
	in["max-faces"] = faces
	flat := randomPoints(5000, 8)
	for i := range flat {
		flat[i].Y = 0
		if i%2 == 0 {
			flat[i].Y = math.Copysign(0, -1)
		}
	}
	in["flat-axis-signed-zeros"] = flat
	return in
}

// TestBuilderMatchesReference: Build, Builder.Build and
// Builder.BuildColumns equal the reference in every field, by bits, at
// GOMAXPROCS 1, 2, 3 and 7.
func TestBuilderMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := DefaultConfig()
	for name, pts := range referenceInputs() {
		x, y, z := columns(pts)
		var serial *Tree
		for _, workers := range []int{1, 2, 3, 7} {
			runtime.GOMAXPROCS(workers)
			want, err := refBuild(pts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				serial = want
			} else if d := treeDiff(want, serial); d != "" {
				t.Errorf("%s: the reference at %d cores is not the serial tree: %s", name, workers, d)
			}
			var b Builder
			for form, build := range map[string]func() (*Tree, error){
				"Build":                func() (*Tree, error) { return Build(pts, cfg) },
				"Builder.Build":        func() (*Tree, error) { return b.Build(pts, cfg, nil) },
				"Builder.BuildColumns": func() (*Tree, error) { return b.BuildColumns(x, y, z, cfg, nil) },
			} {
				got, err := build()
				if err != nil {
					t.Fatalf("%s, %d cores, %s: %v", name, workers, form, err)
				}
				if d := treeDiff(got, want); d != "" {
					t.Errorf("%s, %d cores, %s: %s", name, workers, form, d)
				}
			}
		}
	}
	if _, err := new(Builder).BuildColumns(make([]float64, 3), make([]float64, 2), make([]float64, 3), DefaultConfig(), nil); err == nil {
		t.Error("columns of unequal length built a tree")
	}
}

// TestBuilderReuseMatchesReference runs large → small → large (and the
// V3 form in between) on one builder and one retired tree: whatever the
// scratch and the tree held from the frame before, every tree equals
// the reference. The class of bug is stale state that only a second
// use, and only some core counts, can reach.
func TestBuilderReuseMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	large, small, mid := randomPoints(50_000, 21), randomPoints(700, 22), randomPoints(9000, 23)
	cfg := DefaultConfig()
	for _, workers := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(workers)
		var b Builder
		var tree *Tree
		for step, pts := range [][]vec.V3{large, small, large, mid, small, large} {
			want, err := refBuild(pts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if step%2 == 0 {
				x, y, z := columns(pts)
				tree, err = b.BuildColumns(x, y, z, cfg, tree)
			} else {
				tree, err = b.Build(pts, cfg, tree)
			}
			if err != nil {
				t.Fatal(err)
			}
			if d := treeDiff(tree, want); d != "" {
				t.Fatalf("%d cores, build %d of the sequence (%d points): %s", workers, step, len(pts), d)
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("%d cores, build %d: %v", workers, step, err)
			}
		}
	}
}

// TestBuilderKeepsNothingOfItsTrees: a tree built with no retired tree
// is the caller's — later builds on the same builder leave it alone.
func TestBuilderKeepsNothingOfItsTrees(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	cfg := DefaultConfig()
	pts := randomPoints(30_000, 31)
	x, y, z := columns(pts)
	var b Builder
	kept, err := b.BuildColumns(x, y, z, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refBuild(pts, cfg)
	for _, other := range [][]vec.V3{randomPoints(30_000, 32), randomPoints(500, 33)} {
		ox, oy, oz := columns(other)
		if _, err := b.BuildColumns(ox, oy, oz, cfg, nil); err != nil {
			t.Fatal(err)
		}
		if d := treeDiff(kept, want); d != "" {
			t.Fatalf("a later build changed a tree the caller kept: %s", d)
		}
	}
}

// TestBuilderMutantsFailDifferential seeds the builder with the mistakes
// a rewrite of it could make — each mutant is the builder's own passes
// run with one fault — and demands that treeDiff against the reference
// reports every one.
func TestBuilderMutantsFailDifferential(t *testing.T) {
	const workers = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	cfg := DefaultConfig()
	pts := referenceInputs()["max-faces"]
	x, y, z := columns(pts)
	want, err := refBuild(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := randomPoints(700, 22)
	wantSmall, err := refBuild(small, cfg)
	if err != nil {
		t.Fatal(err)
	}

	mutants := []struct {
		name string
		want *Tree
		run  func(b *Builder) *Tree
	}{
		{"unmutated passes", want, func(b *Builder) *Tree {
			return b.build(b.pts, b.load(x, y, z), cfg, nil)
		}},
		{"a key built from the wrong column", want, func(b *Builder) *Tree {
			root, size := rootCell(b.load(x, y, z), cfg.Pad)
			wrong := append([]vec.V3(nil), b.pts...)
			for i := range wrong {
				wrong[i].Y = wrong[i].X
			}
			b.keys(wrong, root, size, cfg)
			return b.finish(b.pts, root, cfg, nil)
		}},
		{"the bounding box taken before the last chunk", want, func(b *Builder) *Tree {
			last, _ := par.Chunks(len(x), workers).Bounds(workers - 1)
			bounds := b.load(x[:last], y[:last], z[:last])
			b.load(x, y, z)
			return b.build(b.pts, bounds, cfg, nil)
		}},
		{"a retired tree's LeafOffsets not truncated", wantSmall, func(b *Builder) *Tree {
			retired, err := b.Build(pts, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			before := len(retired.LeafOffsets)
			got, err := b.Build(small, cfg, retired)
			if err != nil {
				t.Fatal(err)
			}
			got.LeafOffsets = got.LeafOffsets[:before] // what reuse without grow's s[:n] leaves behind
			return got
		}},
		{"the key pass skipped: the sort runs on the pairs of the frame before", wantSmall, func(b *Builder) *Tree {
			// The stale indices panic: keep that on this goroutine.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			if _, err := b.Build(pts, cfg, nil); err != nil {
				t.Fatal(err)
			}
			sx, sy, sz := columns(small)
			root, _ := rootCell(b.load(sx, sy, sz), cfg.Pad)
			return b.finish(b.pts, root, cfg, nil)
		}},
	}
	for i, m := range mutants {
		var d string
		func() {
			defer func() {
				if r := recover(); r != nil {
					d = fmt.Sprint("panic: ", r)
				}
			}()
			d = treeDiff(m.run(new(Builder)), m.want)
		}()
		switch {
		case i == 0 && d != "":
			t.Errorf("%s: %s", m.name, d)
		case i > 0 && d == "":
			t.Errorf("mutant %q passed the differential test", m.name)
		case i > 0:
			t.Logf("mutant %q caught: %s", m.name, d)
		}
	}
}

// BenchmarkBuild times the partitioner at the benchmark's frame size,
// through the one-shot Build and through one Builder refilling one
// retired tree from columns; run with -cpu 1,2.
func BenchmarkBuild(b *testing.B) {
	pts := randomPoints(200_000, 1)
	x, y, z := columns(pts)
	cfg := DefaultConfig()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Build(pts, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		var bld Builder
		tree, err := bld.BuildColumns(x, y, z, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if tree, err = bld.BuildColumns(x, y, z, cfg, tree); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestBuilderAllocationsIndependentOfWorkers: a warm BuildColumns at the
// benchmark's 200k points allocates nothing at 1, 2 and 8 cores. Before
// the builder kept a sortx.Sorter and bound its chunk bodies once, it
// allocated 47 times a build at every core count: a histogram table and
// two ForChunks closures for each radix pass over a varying key byte,
// the partials and closures of the MapReduce scans (the bounding box,
// sortx's key range, the sortedness check) and the closures of the key
// pass and the leaf gather. A carve that fanned out per subtree
// allocated its task closures and node buffers per worker: 77
// allocations at 2 workers and 364 at 8.
func TestBuilderAllocationsIndependentOfWorkers(t *testing.T) {
	const maxAllocs = 0
	x, y, z := columns(randomPoints(200_000, 1))
	allocs := map[int]float64{}
	cfg := DefaultConfig()
	for _, procs := range []int{1, 2, 8} {
		var b Builder
		var tree *Tree
		var err error
		allocs[procs] = mallocsPerRun(procs, 5, func() {
			tree, err = b.BuildColumns(x, y, z, cfg, tree)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs[procs] > maxAllocs {
			t.Errorf("GOMAXPROCS %d: %v allocations per warm build, want at most %d", procs, allocs[procs], maxAllocs)
		}
	}
	if allocs[2] != allocs[1] || allocs[8] != allocs[1] {
		t.Errorf("allocations per warm build depend on the core count: %v at GOMAXPROCS 1, 2 and 8", []float64{allocs[1], allocs[2], allocs[8]})
	}
}

// mallocsPerRun is testing.AllocsPerRun at GOMAXPROCS procs: heap
// allocations per call of f, averaged over runs calls after one
// uncounted call. AllocsPerRun itself measures at GOMAXPROCS 1, where
// every par call is one chunk on the caller, so it cannot see an
// allocation made per chunk. It returns the least of three such
// averages: at a processor count above the machine's, a collection
// that falls among the runs can make the runtime allocate threads and
// goroutines of its own, which a round without one does not count.
func mallocsPerRun(procs, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
	least := uint64(math.MaxUint64)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.Mallocs-before.Mallocs)/uint64(runs))
	}
	return float64(least)
}
