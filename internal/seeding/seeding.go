// Package seeding implements the paper's §3.2 seeding strategy and
// incremental visualization ordering: seeds are selected "so that the
// local density anywhere in the final distribution of field lines is
// approximately proportional to the local magnitude of the underlying
// field", which physicists read directly as flux density.
//
// The algorithm is the paper's, verbatim:
//
//  1. each element's desired number of field lines is the average
//     field intensity at the element times its volume, rescaled so the
//     total equals the requested line budget;
//  2. repeatedly select the element that most needs an additional
//     line, pick a random seed point inside it, and integrate the line;
//  3. as the line visits elements, decrement their desired counts;
//  4. stop when the total desired number of lines has been produced.
//
// Because the neediest element is always chosen first, "the images
// that result from rendering the first n field lines are always nearly
// correct in showing field line density proportional to the magnitude
// of the underlying field" — the incremental-loading property of
// Figs 7 and 10, which the tests verify.
package seeding

import (
	"fmt"
	"math"

	"repro/internal/fieldline"
	"repro/internal/hexmesh"
	"repro/internal/vec"
)

// Config controls a seeding run.
type Config struct {
	// TotalLines is the maximum number of field lines to pre-integrate.
	TotalLines int
	// Trace configures the per-line integration.
	Trace fieldline.Config
	// Seed makes seed-point selection deterministic.
	Seed uint64
	// Bidirectional integrates each line both with and against the
	// field (electric lines span surface to surface).
	Bidirectional bool
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.TotalLines < 1 {
		return fmt.Errorf("seeding: total lines %d must be >= 1", c.TotalLines)
	}
	return c.Trace.Validate()
}

// Result is an ordered set of pre-integrated field lines. Lines[0:n]
// for any n is the correct n-line incremental rendering: the set of
// lines in each prefix is by construction a superset of every shorter
// prefix, and density tracks field magnitude at every prefix.
//
// The result owns its lines' storage: every sample of every line lives
// in one flat slab, and each entry of Lines is a window into it. A line
// is therefore valid for as long as the Result (or the line itself) is
// reachable, costs no allocation of its own, and must be treated as
// read-only — appending to its slices reallocates them, writing through
// them edits the result.
type Result struct {
	Lines []*fieldline.Line
	// SeedElement records which element each line was seeded in.
	SeedElement []int
	// Visits counts, per element, how many lines passed through it.
	Visits []float64
	// Desired is the target line count per element after rescaling.
	Desired []float64
	// Attempts counts the seed points tried: the kept lines plus the
	// degenerate seeds (field null at the sample) that were rolled back.
	Attempts int

	slab  fieldline.Slab   // the samples of every line, in order
	lines []fieldline.Line // the windows Lines points at
}

// need is a heap entry; stale entries are discarded lazily.
type need struct {
	element  int
	priority float64
}

// needHeap is a max-heap on priority. init, push and pop are
// container/heap's Init, Push and Pop written out for the concrete
// element type — the same sift order, so the same element wins every
// tie, without boxing each entry in an interface.
type needHeap []need

func (h needHeap) less(i, j int) bool { return h[i].priority > h[j].priority }

func (h needHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *needHeap) push(x need) {
	*h = append(*h, x)
	h.up(len(*h) - 1)
}

func (h *needHeap) pop() need {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*h = old[:n]
	return old[n]
}

func (h needHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h needHeap) down(i0, n int) {
	i := i0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j+1 < n && h.less(j+1, j) {
			j++ // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// SeedLines runs the strategy over the mesh with per-element intensity
// given by intensity(e) (typically |E| at the element center) and the
// field to integrate.
func SeedLines(mesh *hexmesh.Mesh, field fieldline.Field, intensity func(e int) float64, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := mesh.NumElements()
	if n == 0 {
		return nil, fmt.Errorf("seeding: empty mesh")
	}

	// Step 1: desired lines per element ∝ intensity x volume.
	desired := make([]float64, n)
	var total float64
	for e := 0; e < n; e++ {
		iv := intensity(e)
		if iv < 0 {
			iv = 0
		}
		desired[e] = iv * mesh.Elements[e].Volume()
		total += desired[e]
	}
	if total == 0 {
		return nil, fmt.Errorf("seeding: field is identically zero")
	}
	scale := float64(cfg.TotalLines) / total
	for e := range desired {
		desired[e] *= scale
	}

	res := &Result{
		Visits:  make([]float64, n),
		Desired: append([]float64(nil), desired...),
	}

	// The trace domain is the vacuum region intersected with any
	// caller-provided domain.
	trace := cfg.Trace
	callerDomain := trace.Domain
	trace.Domain = func(p vec.V3) bool {
		if !mesh.Inside(p) {
			return false
		}
		if callerDomain != nil {
			return callerDomain(p)
		}
		return true
	}

	// Lazy max-heap over need = desired - visits.
	h := make(needHeap, 0, n)
	for e := 0; e < n; e++ {
		if desired[e] > 0 {
			h = append(h, need{e, desired[e]})
		}
	}
	h.init()

	// Every attempt traces straight into the result's slab; one that is
	// not kept is rolled back, so an attempt allocates nothing. A kept
	// line is recorded as its end offset (it starts where the previous
	// one ends) and the windows are cut once the slab has stopped
	// growing. lastLine[e] is the 1-based number of the last line that
	// visited element e — the per-line visited set, without a map.
	//
	// The slab starts with room for a typical run (32 samples a line, for
	// at most 2048 lines: 3.5 MB) and grows from there; regrowing it from
	// nothing every frame cost a fifth of the steady-state loop.
	slab := &res.slab
	reserve := 32 * min(cfg.TotalLines, 2048)
	slab.Points = make([]vec.V3, 0, reserve)
	slab.Tangents = make([]vec.V3, 0, reserve)
	slab.Strengths = make([]float64, 0, reserve)
	var ends []int
	var closed []bool
	lastLine := make([]int32, n)

	rngState := cfg.Seed | 1
	for len(ends) < cfg.TotalLines && len(h) > 0 {
		top := h.pop()
		cur := desired[top.element] - res.Visits[top.element]
		if top.priority != cur {
			// Stale priority (the element was visited by another line
			// since it was pushed): reinsert with the current need.
			h.push(need{top.element, cur})
			continue
		}

		// Step 2: random seed point inside the neediest element.
		seedPt := mesh.RandomPointIn(top.element, &rngState)
		res.Attempts++
		lo := slab.Len()
		var loop bool
		if cfg.Bidirectional {
			loop = slab.AppendTraceBoth(field, seedPt, trace)
		} else {
			loop = slab.AppendTrace(field, seedPt, trace, +1)
		}
		if slab.Len()-lo < 2 {
			// Degenerate seed (field null at the sample); charge the
			// element one visit so repeated selection converges away.
			slab.Truncate(lo)
			res.Visits[top.element]++
			h.push(need{top.element, desired[top.element] - res.Visits[top.element]})
			continue
		}

		// Step 3: decrement desired counts along the path (each element
		// at most once per line).
		this := int32(len(ends) + 1)
		for _, p := range slab.Points[lo:] {
			if e := mesh.Locate(p); e >= 0 && lastLine[e] != this {
				lastLine[e] = this
				res.Visits[e]++
			}
		}
		if lastLine[top.element] != this {
			res.Visits[top.element]++
		}
		// Reinsert with the updated (possibly negative) need: the paper
		// stops at the total line budget, not when needs reach zero, so
		// relative need keeps steering seeds toward under-served strong
		// regions for the whole run.
		h.push(need{top.element, desired[top.element] - res.Visits[top.element]})

		ends = append(ends, slab.Len())
		closed = append(closed, loop)
		res.SeedElement = append(res.SeedElement, top.element)
	}

	res.lines = make([]fieldline.Line, len(ends))
	res.Lines = make([]*fieldline.Line, len(ends))
	lo := 0
	for i, hi := range ends {
		res.lines[i] = slab.Line(lo, hi, closed[i])
		res.Lines[i] = &res.lines[i]
		lo = hi
	}
	return res, nil
}

// Prefix returns the first n lines — one frame of the incremental
// loading animation of Figs 7 and 10. n is clamped to the available
// count.
func (r *Result) Prefix(n int) []*fieldline.Line {
	if n > len(r.Lines) {
		n = len(r.Lines)
	}
	if n < 0 {
		n = 0
	}
	return r.Lines[:n]
}

// DensityCorrelation measures how well the achieved per-element visit
// counts of the first n lines track the desired distribution: it
// returns the Pearson correlation between visits(prefix) and Desired
// over elements with nonzero desire. Values near 1 mean the prefix
// images show "field line density proportional to the magnitude of the
// underlying field".
func (r *Result) DensityCorrelation(mesh *hexmesh.Mesh, n int) float64 {
	visits := make([]float64, len(r.Desired))
	for li := 0; li < n && li < len(r.Lines); li++ {
		seen := map[int]bool{}
		for _, p := range r.Lines[li].Points {
			if e := mesh.Locate(p); e >= 0 && !seen[e] {
				seen[e] = true
				visits[e]++
			}
		}
	}
	return pearson(visits, r.Desired)
}

// pearson computes the correlation coefficient between x and y.
func pearson(x, y []float64) float64 {
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / (math.Sqrt(vx) * math.Sqrt(vy))
}
