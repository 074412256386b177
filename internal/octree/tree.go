package octree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/par"
	"repro/internal/sortx"
	"repro/internal/vec"
)

// NoChild marks a node without children (a leaf).
const NoChild = int32(-1)

// Node is one octree node. Children, when present, are eight
// consecutive entries starting at FirstChild, indexed by the
// AABB.Octant convention. Leaves own a contiguous group of the tree's
// reordered point array.
type Node struct {
	Bounds     vec.AABB
	FirstChild int32   // NoChild for leaves
	Level      uint8   // root is level 0
	Offset     int64   // leaf: start of its group in Tree.Points
	Count      int64   // number of points in this subtree (== group size for leaves)
	Density    float64 // Count / Bounds.Volume()
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.FirstChild == NoChild }

// Tree is a partitioned particle data set: the octree plus the particle
// positions reordered so that leaf groups are contiguous and ordered by
// increasing leaf density. OrigIndex maps each reordered point back to
// its index in the source data, so per-particle attributes (e.g. the
// other three phase-space coordinates) can be looked up after
// extraction.
type Tree struct {
	Bounds   vec.AABB
	MaxLevel int
	LeafCap  int // subdivision stops once a node holds <= LeafCap points

	Nodes     []Node
	Points    []vec.V3
	OrigIndex []int64

	// LeavesByDensity lists leaf node indices in increasing density
	// order; group k occupies Points[LeafOffsets[k]:LeafOffsets[k+1]].
	LeavesByDensity []int32
	LeafOffsets     []int64
}

// Config controls a partitioning run.
type Config struct {
	MaxLevel int // maximal subdivision level (paper §2.3); 1..MaxLevel
	LeafCap  int // target max points per leaf before subdividing further
	Workers  int // parallelism (0 = auto)
	// Pad expands the bounding box by this relative amount so points on
	// the max faces land strictly inside the root cell.
	Pad float64
}

// DefaultConfig returns the configuration used by the experiments:
// level-8 subdivision (256^3 finest cells) with small leaves.
func DefaultConfig() Config {
	return Config{MaxLevel: 8, LeafCap: 64, Pad: 1e-9}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.MaxLevel < 1 || c.MaxLevel > MaxLevel {
		return fmt.Errorf("octree: max level %d out of range [1, %d]", c.MaxLevel, MaxLevel)
	}
	if c.LeafCap < 1 {
		return fmt.Errorf("octree: leaf capacity %d must be >= 1", c.LeafCap)
	}
	if c.Pad < 0 {
		return fmt.Errorf("octree: pad %g must be non-negative", c.Pad)
	}
	return nil
}

// Build partitions the given points into an octree. The input slice is
// not modified; the tree stores a reordered copy and is the caller's to
// keep. Build is the "partitioning program" of the paper's preprocessing
// pipeline; a caller that partitions frame after frame keeps a Builder.
func Build(points []vec.V3, cfg Config) (*Tree, error) {
	return new(Builder).Build(points, cfg, nil)
}

// Builder carries a build's scratch from one frame to the next: the
// Morton pairs and the radix ping-pong buffer, the leaf-density pairs
// and the projected points of BuildColumns. The zero value is ready; a
// Builder serves one build at a time.
//
// Every build also takes a retired tree — one whose last reader has
// finished — and returns it refilled, its Nodes, Points, OrigIndex,
// LeavesByDensity and LeafOffsets reused where they are large enough.
// Nothing of the returned tree aliases the builder, so a tree built
// with retired == nil is as much the caller's as one from Build, and a
// tree stays valid until the caller itself hands it back as retired.
type Builder struct {
	pairs, scratch []sortx.KV // Morton (key, index) pairs; the sorts' ping-pong
	dens           []sortx.KV // (density key, node) per non-empty leaf
	pts            []vec.V3   // BuildColumns' projected points
}

// Build is the package's Build on b's scratch, refilling retired (nil
// for a fresh tree).
func (b *Builder) Build(points []vec.V3, cfg Config, retired *Tree) (*Tree, error) {
	if err := checkBuild(len(points), cfg); err != nil {
		return nil, err
	}
	bounds := par.MapReduce(len(points), cfg.Workers, vec.Empty,
		func(bb vec.AABB, lo, hi int) vec.AABB {
			lo3, hi3 := bb.Min, bb.Max
			for _, p := range points[lo:hi] {
				lo3, hi3 = extend(lo3, hi3, p)
			}
			return vec.Box(lo3, hi3)
		}, vec.AABB.ExtendBox)
	return b.build(points, bounds, cfg, retired), nil
}

// BuildColumns builds the tree of the points (x[i], y[i], z[i]) — three
// columns of a structure-of-arrays ensemble — without the caller
// materialising them: one pass reads the columns, writes the projected
// points into the builder and takes the bounding box.
func (b *Builder) BuildColumns(x, y, z []float64, cfg Config, retired *Tree) (*Tree, error) {
	if len(y) != len(x) || len(z) != len(x) {
		return nil, fmt.Errorf("octree: columns of %d, %d and %d points", len(x), len(y), len(z))
	}
	if err := checkBuild(len(x), cfg); err != nil {
		return nil, err
	}
	bounds := b.load(x, y, z, cfg.Workers)
	return b.build(b.pts, bounds, cfg, retired), nil
}

func checkBuild(n int, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("octree: no points to partition")
	}
	return nil
}

// extend is AABB.ExtendPoint on the min and max builtins, which keep
// math.Min's and math.Max's NaN and signed-zero rules exactly and are
// compiled inline where those are calls. It takes the corners apart: a
// loop keeps two V3s in registers, where it copies an AABB through
// memory on every iteration.
func extend(lo, hi, p vec.V3) (vec.V3, vec.V3) {
	return vec.V3{X: min(lo.X, p.X), Y: min(lo.Y, p.Y), Z: min(lo.Z, p.Z)},
		vec.V3{X: max(hi.X, p.X), Y: max(hi.Y, p.Y), Z: max(hi.Z, p.Z)}
}

// load is pass 1 of a column build (parallel): project the columns into
// b.pts and return their bounding box.
func (b *Builder) load(x, y, z []float64, workers int) vec.AABB {
	b.pts = grow(b.pts, len(x))
	pts := b.pts
	return par.MapReduce(len(x), workers, vec.Empty,
		func(bb vec.AABB, lo, hi int) vec.AABB {
			xs, ys, zs, out := x[lo:hi], y[lo:hi], z[lo:hi], pts[lo:hi]
			lo3, hi3 := bb.Min, bb.Max
			for i := range out {
				p := vec.V3{X: xs[i], Y: ys[i], Z: zs[i]}
				out[i] = p
				lo3, hi3 = extend(lo3, hi3, p)
			}
			return vec.Box(lo3, hi3)
		}, vec.AABB.ExtendBox)
}

// build runs the passes behind the bounding box.
func (b *Builder) build(points []vec.V3, bounds vec.AABB, cfg Config, retired *Tree) *Tree {
	root, size := rootCell(bounds, cfg.Pad)
	b.keys(points, root, size, cfg)
	return b.finish(points, root, cfg, retired)
}

// rootCell makes the root cell cubical so octants stay cubical at every
// level (equal per-level cell volumes make density comparisons
// uniform), then pads it so max-face points map inside the last cell
// row. It returns the cell and its edge.
func rootCell(bounds vec.AABB, pad float64) (vec.AABB, float64) {
	size := bounds.Size().MaxComponent()
	if size == 0 {
		size = 1 // all points coincident; any box works
	}
	size *= 1 + pad
	c := bounds.Center()
	half := size / 2
	return vec.Box(
		vec.New(c.X-half, c.Y-half, c.Z-half),
		vec.New(c.X+half, c.Y+half, c.Z+half),
	), size
}

// keys is pass 2 (parallel): Morton codes at the maximal level, packed
// with the source index into b.pairs for the sort. Codes compare as if
// computed at MaxLevel resolution; childAt uses cfg.MaxLevel
// consistently.
func (b *Builder) keys(points []vec.V3, root vec.AABB, size float64, cfg Config) {
	b.pairs = grow(b.pairs, len(points))
	pairs, lo3 := b.pairs, root.Min
	cells := uint64(1) << uint(cfg.MaxLevel)
	scale := float64(cells) / size
	par.ForChunks(len(points), cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := points[i]
			cx := cellCoord((p.X-lo3.X)*scale, cells)
			cy := cellCoord((p.Y-lo3.Y)*scale, cells)
			cz := cellCoord((p.Z-lo3.Z)*scale, cells)
			pairs[i] = sortx.KV{K: Encode(cx, cy, cz), V: int64(i)}
		}
	})
}

// finish sorts b.pairs and carves, orders and gathers the tree.
func (b *Builder) finish(points []vec.V3, root vec.AABB, cfg Config, t *Tree) *Tree {
	n := len(points)
	pairs := b.pairs[:n]

	// Pass 3 (parallel): stable radix sort by code. Stability makes the
	// whole build independent of the worker count: equal codes keep
	// input order, so every downstream pass sees the same permutation.
	if n > sortx.FallbackThreshold {
		b.scratch = grow(b.scratch, n)
	}
	sortx.PairsScratch(pairs, b.scratch, cfg.Workers)

	// The carve's binary-search splits assume monotone codes, and a
	// violated assumption would carve a silently corrupt tree — so
	// spend one cheap parallel scan keeping the invariant loud.
	sorted := par.MapReduce(n, cfg.Workers,
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

	// Pass 4: carve the tree out of the sorted array, depth first, into
	// the refilled tree's nodes. It is serial: a small share of a build,
	// where a concurrent carve bought no time on two cores.
	if t == nil {
		t = new(Tree)
	}
	t.Bounds, t.MaxLevel, t.LeafCap = root, cfg.MaxLevel, cfg.LeafCap
	t.Nodes = append(t.Nodes[:0], Node{Bounds: root, FirstChild: NoChild})
	(&carver{pairs: pairs, cfg: cfg}).carve(&t.Nodes, 0, 0, int64(n))

	// Pass 5 (parallel): order leaves by increasing density and emit the
	// grouped, density-sorted point array (the paper's particle-file
	// layout). The density sort reuses sortx via an order-preserving
	// float-to-uint key; the gather fans out over leaf groups, whose
	// destination ranges are disjoint by construction.
	leaves := t.LeavesByDensity[:0]
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf() && t.Nodes[i].Count > 0 {
			leaves = append(leaves, int32(i))
		}
	}
	b.dens = grow(b.dens, len(leaves))
	byDensity := b.dens
	for k, li := range leaves {
		byDensity[k] = sortx.KV{K: sortx.Float64Key(t.Nodes[li].Density), V: int64(li)}
	}
	sortx.PairsScratch(byDensity, b.scratch, cfg.Workers)
	for k := range byDensity {
		leaves[k] = int32(byDensity[k].V)
	}

	t.Points = grow(t.Points, n)
	t.OrigIndex = grow(t.OrigIndex, n)
	t.LeavesByDensity = leaves
	t.LeafOffsets = grow(t.LeafOffsets, len(leaves)+1)
	pos := int64(0)
	for k, li := range leaves {
		t.LeafOffsets[k] = pos
		pos += t.Nodes[li].Count
	}
	t.LeafOffsets[len(leaves)] = pos
	par.ForChunks(len(leaves), cfg.Workers, func(klo, khi int) {
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
	return t
}

// grow returns s with length n, reallocated only when its capacity is
// short. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// cellCoord clamps a scaled coordinate to a valid cell index.
func cellCoord(x float64, cells uint64) uint64 {
	if x <= 0 {
		return 0
	}
	c := uint64(x)
	if c >= cells {
		c = cells - 1
	}
	return c
}

// carver carves the tree out of the Morton-sorted pair array. pairs is
// read-only and positional: pairs[i].K is the code of the i-th sorted
// point.
type carver struct {
	pairs []sortx.KV
	cfg   Config
}

// fill sets the per-node statistics every node carries, leaf or not.
func (cv *carver) fill(node *Node, lo, hi int64) {
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
// each boundary is a binary search — O(log n) per child instead of a
// linear scan.
func (cv *carver) split(lo, hi int64, level int) [9]int64 {
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

// carve recursively subdivides (*nodes)[idx], whose points occupy
// sorted positions [lo,hi), appending children depth first. Offsets
// stored here are provisional (Morton order); finish rewrites them in
// density order afterwards.
func (cv *carver) carve(nodes *[]Node, idx int32, lo, hi int64) {
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
		cv.carve(nodes, first+int32(c), splits[c], splits[c+1])
	}
}

// NumLeaves returns the number of non-empty leaf groups.
func (t *Tree) NumLeaves() int { return len(t.LeavesByDensity) }

// Leaf returns the k-th leaf in increasing-density order.
func (t *Tree) Leaf(k int) *Node { return &t.Nodes[t.LeavesByDensity[k]] }

// MaxDepth returns the deepest level present in the tree.
func (t *Tree) MaxDepth() int {
	d := 0
	for i := range t.Nodes {
		if int(t.Nodes[i].Level) > d {
			d = int(t.Nodes[i].Level)
		}
	}
	return d
}

// Validate checks the tree's structural invariants. It is used by the
// property tests and by the file reader to reject corrupt input:
//
//   - every child index is in range and every node is reached once (a
//     forged file cannot make the walk run away)
//   - children tile their parent and partition its count
//   - leaf groups are disjoint, contiguous, and cover Points exactly
//   - leaf densities are non-decreasing in LeavesByDensity order
func (t *Tree) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("octree: empty tree")
	}
	if len(t.OrigIndex) != len(t.Points) {
		return fmt.Errorf("octree: %d original indices for %d points", len(t.OrigIndex), len(t.Points))
	}
	seen := make([]bool, len(t.Nodes))
	var walk func(idx int32) (int64, error)
	walk = func(idx int32) (int64, error) {
		n := &t.Nodes[idx]
		if seen[idx] {
			return 0, fmt.Errorf("octree: node %d has two parents", idx)
		}
		seen[idx] = true
		if !n.IsLeaf() && (n.FirstChild < 1 || int(n.FirstChild) > len(t.Nodes)-8) {
			return 0, fmt.Errorf("octree: node %d children at %d out of range", idx, n.FirstChild)
		}
		if n.IsLeaf() {
			if n.Count > 0 {
				if n.Offset < 0 || n.Offset+n.Count > int64(len(t.Points)) {
					return 0, fmt.Errorf("octree: leaf %d group [%d,%d) out of range", idx, n.Offset, n.Offset+n.Count)
				}
				for j := n.Offset; j < n.Offset+n.Count; j++ {
					if !n.Bounds.Contains(t.Points[j]) {
						return 0, fmt.Errorf("octree: point %d outside its leaf bounds", j)
					}
				}
			}
			return n.Count, nil
		}
		var sum int64
		for c := int32(0); c < 8; c++ {
			cnt, err := walk(n.FirstChild + c)
			if err != nil {
				return 0, err
			}
			sum += cnt
		}
		if sum != n.Count {
			return 0, fmt.Errorf("octree: node %d count %d != children sum %d", idx, n.Count, sum)
		}
		return sum, nil
	}
	total, err := walk(0)
	if err != nil {
		return err
	}
	if total != int64(len(t.Points)) {
		return fmt.Errorf("octree: tree holds %d points, array has %d", total, len(t.Points))
	}
	if len(t.LeafOffsets) != len(t.LeavesByDensity)+1 {
		return fmt.Errorf("octree: leaf offset table size mismatch")
	}
	prev := math.Inf(-1)
	for k, li := range t.LeavesByDensity {
		if li < 0 || int(li) >= len(t.Nodes) {
			return fmt.Errorf("octree: leaf %d is node %d of %d", k, li, len(t.Nodes))
		}
		n := &t.Nodes[li]
		if n.Density < prev {
			return fmt.Errorf("octree: leaf %d density %g out of order (prev %g)", k, n.Density, prev)
		}
		prev = n.Density
		if n.Offset != t.LeafOffsets[k] {
			return fmt.Errorf("octree: leaf %d offset %d != table %d", k, n.Offset, t.LeafOffsets[k])
		}
		if n.Offset+n.Count != t.LeafOffsets[k+1] {
			return fmt.Errorf("octree: leaf %d group end %d != table %d", k, n.Offset+n.Count, t.LeafOffsets[k+1])
		}
	}
	return nil
}
