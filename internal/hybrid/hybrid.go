package hybrid

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/octree"
	"repro/internal/vec"
)

// Representation is one hybrid frame: the low-resolution density
// volume standing in for the dense core, plus the full-resolution halo
// points from octree leaves below the density threshold. It is the
// unit the viewer loads, caches and renders (§2.4–2.5).
type Representation struct {
	Bounds    vec.AABB
	Threshold float64 // leaf-density threshold used at extraction
	MaxLeafD  float64 // max leaf density in the source tree (normalization)

	Volume *Grid // normalized density volume of the full data

	Points       []vec.V3  // halo points, in increasing leaf-density order
	PointDensity []float32 // normalized leaf density per point (for the point TF)
	// OrigIndex maps each halo point back to its particle index in the
	// source frame. It is what makes the paper's §2.5 extension
	// possible: "because points are drawn dynamically, they could be
	// drawn (in terms of color or opacity) based on some dynamically
	// calculated property that the scientist is interested in, such as
	// temperature or emittance" — the viewer looks the property up per
	// point at draw time instead of baking it in.
	OrigIndex []int64
}

// ExtractConfig controls Extract.
type ExtractConfig struct {
	VolumeRes int     // density volume resolution per axis (e.g. 64)
	Threshold float64 // leaf-density threshold; <= 0 means use Budget
	Budget    int64   // max points to keep when Threshold <= 0
}

// Extract converts a partitioned tree into a hybrid representation:
// the contiguous low-density prefix of the particle array becomes the
// point set, and the full data is splatted into a VolumeRes^3 density
// volume. This is the paper's "extraction program": because the
// particle file is sorted by increasing density, the points kept are a
// prefix copy and the discarded dense-core particles are only touched
// by the (one-time) volume splat.
func Extract(t *octree.Tree, cfg ExtractConfig) (*Representation, error) {
	if cfg.VolumeRes < 2 {
		return nil, fmt.Errorf("hybrid: volume resolution %d too small", cfg.VolumeRes)
	}
	if math.IsNaN(cfg.Threshold) || math.IsInf(cfg.Threshold, 0) {
		return nil, fmt.Errorf("hybrid: threshold %g is not finite", cfg.Threshold)
	}
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = t.ThresholdForBudget(cfg.Budget)
	}
	cut := t.CutLeaf(threshold)
	end := t.LeafOffsets[cut]

	rep := &Representation{
		Bounds:    t.Bounds,
		Threshold: threshold,
	}
	// Normalization: densities are expressed relative to the densest leaf.
	if n := t.NumLeaves(); n > 0 {
		rep.MaxLeafD = t.Leaf(n - 1).Density
	}

	// Halo points: contiguous prefix (copied so the representation is
	// self-contained once the tree is evicted).
	rep.Points = append([]vec.V3(nil), t.Points[:end]...)
	rep.OrigIndex = append([]int64(nil), t.OrigIndex[:end]...)
	rep.PointDensity = make([]float32, end)
	norm := 1.0
	if rep.MaxLeafD > 0 {
		norm = 1 / rep.MaxLeafD
	}
	for k := 0; k < cut; k++ {
		d := float32(t.Leaf(k).Density * norm)
		for i := t.LeafOffsets[k]; i < t.LeafOffsets[k+1]; i++ {
			rep.PointDensity[i] = d
		}
	}

	// Density volume over the full data.
	vol, err := Splat(t.Points, t.Bounds, cfg.VolumeRes, cfg.VolumeRes, cfg.VolumeRes)
	if err != nil {
		return nil, err
	}
	vol.Normalize()
	rep.Volume = vol
	return rep, nil
}

// NumPoints returns the number of halo points kept.
func (r *Representation) NumPoints() int { return len(r.Points) }

// WriteFile writes the representation to the named file, atomically:
// the bytes go to a temp file in the same directory, which is renamed
// into place only after a successful close. A writer killed mid-frame
// leaves a stray temp file, never a partial .achy at the final path —
// the crash-safety a DirStore shared between a producing pipeline and
// a serving process needs (the reader additionally skips any partial
// leftovers; see remote.NewDirStore).
func (r *Representation) WriteFile(path string) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	tmp := f.Name()
	if err := r.Write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("hybrid: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("hybrid: %w", err)
	}
	return nil
}

// SelectPoints applies the point transfer function: for each halo
// point, the fraction tf.PointFraction(density) decides whether it is
// drawn. Selection is deterministic — point i at fraction f is drawn
// iff frac((i+1)*phi) < f with phi the golden-ratio conjugate — so "the
// transfer function's value at 0.75 ... means three out of every four
// points are drawn" holds without flicker between frames.
func (r *Representation) SelectPoints(tf *LinkedTF) []int {
	return r.SelectPointsOffset(tf, 0)
}

// SelectPointsOffset selects points as SelectPoints does, but treats
// the representation as the contiguous sub-range of a larger frame
// starting at global point index offset: point i hashes as global
// point offset+i. Splitting a frame's points into contiguous ranges
// and selecting each range at its own offset therefore draws exactly
// the points the undivided frame would — the invariant the sort-last
// distributed render path depends on.
func (r *Representation) SelectPointsOffset(tf *LinkedTF, offset int) []int {
	const phi = 0.6180339887498949
	out := make([]int, 0, len(r.Points))
	for i := range r.Points {
		f := tf.PointFraction(float64(r.PointDensity[i]))
		if f <= 0 {
			continue
		}
		if f >= 1 {
			out = append(out, i)
			continue
		}
		u := math.Mod(float64(offset+i+1)*phi, 1)
		if u < f {
			out = append(out, i)
		}
	}
	return out
}
