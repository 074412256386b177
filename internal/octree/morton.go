// Package octree implements the particle partitioner of §2.3 of the
// paper: unstructured particle data is organized into an octree whose
// subdivision is bounded by a maximal level; particles are grouped by
// leaf node, the groups are sorted in order of increasing node density,
// and each node records an offset and count into the reordered particle
// array. That layout is what makes the paper's extraction step a
// contiguous-prefix copy ("all particles required for any hybrid
// representation are in a contiguous block at the beginning of the
// file ... discarded particles are never read from disk").
//
// The build is the classic linear-octree construction: particles are
// assigned Morton codes at the maximal subdivision level, sorted, and
// the tree is carved top-down out of the sorted array, with each
// level's split points found by binary search. All heavy passes run in
// parallel chunks.
//
// Who owns a tree. Build returns a tree that is the caller's outright. A
// Builder keeps a build's scratch from frame to frame and refills a
// retired tree instead of allocating one, and the rule for retiring is
// the caller's to keep: a tree may be handed back only by its last
// reader, once nothing reads its Nodes, Points, OrigIndex,
// LeavesByDensity or LeafOffsets any more (hybrid.Extract copies what it
// keeps, so a tree is free the moment Extract returns), and from then on
// it belongs to the build that refills it. A tree that is never handed
// back is never touched: nothing of it aliases the builder. The streams
// of internal/core retire trees through a free list the stream owns —
// never a tree a consumer was given (KeepTrees, SkipExtract).
package octree

// MaxLevel is the deepest supported subdivision level: 21 levels of 3
// bits fit in a 63-bit Morton code.
const MaxLevel = 21

// spread3 spreads the low 21 bits of x so that bit i moves to bit 3i,
// leaving two zero bits between consecutive bits — the standard
// bit-twiddling kernel of 3-D Morton encoding.
func spread3(x uint64) uint64 {
	x &= 0x1fffff // 21 bits
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// Encode interleaves three 21-bit cell coordinates into a Morton code.
// Bit 0 of x lands in bit 0, bit 0 of y in bit 1, bit 0 of z in bit 2,
// matching the AABB.Octant child indexing (bit 0 = upper X half).
func Encode(x, y, z uint64) uint64 {
	return spread3(x) | spread3(y)<<1 | spread3(z)<<2
}

// childAt extracts the 3-bit child index of the given level from a
// code computed at maxLevel. Level 0's child bits are the most
// significant triple.
func childAt(code uint64, level, maxLevel int) int {
	shift := uint(3 * (maxLevel - 1 - level))
	return int(code >> shift & 7)
}
