package octree

import "sort"

// CutLeaf returns the number of leading leaves (in density order) whose
// density is strictly below threshold. Everything before the cut is
// "halo" (kept as points by the extraction program); everything after
// is "core" (represented by the density volume). Because leaf groups are
// stored in increasing-density order, the halo is Points[:LeafOffsets[cut]],
// a zero-copy contiguous prefix of the point array — the property that
// makes the paper's extraction step pure sequential I/O with "no
// computation necessary for the particles" and discarded particles never
// read.
func (t *Tree) CutLeaf(threshold float64) int {
	return sort.Search(len(t.LeavesByDensity), func(i int) bool {
		return t.Nodes[t.LeavesByDensity[i]].Density >= threshold
	})
}

// ThresholdForBudget returns the largest leaf-density threshold whose
// extraction keeps at most budget points. This is how the viewer's
// "balance file size against visual accuracy" control (§2.3) is
// implemented: pick a byte budget, derive the density cut.
func (t *Tree) ThresholdForBudget(budget int64) float64 {
	if budget <= 0 {
		return 0
	}
	// Find the last leaf whose cumulative count fits the budget.
	k := sort.Search(len(t.LeavesByDensity), func(i int) bool {
		return t.LeafOffsets[i+1] > budget
	})
	if k == len(t.LeavesByDensity) {
		// Everything fits: any threshold above the max density.
		return t.Nodes[t.LeavesByDensity[k-1]].Density * 2
	}
	return t.Nodes[t.LeavesByDensity[k]].Density
}
