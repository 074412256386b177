// Beamhalo reproduces the paper's §2 workload end to end: a
// mismatched intense beam in a quadrupole channel develops a halo over
// hundreds of lattice periods; frames stream through the staged
// engine — frame N+1 simulates while frame N partitions, frame N-1
// extracts and frame N-2 renders — and are drawn looking down the beam
// axis like Fig 5, with the four-fold symmetry and halo statistics
// printed per frame. It also demonstrates the Fig 3 inverse-linked
// transfer-function editing and the Fig 1 volume-vs-hybrid comparison
// on the final frame.
//
//	go run ./examples/beamhalo
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/beam"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/render"
	"repro/internal/vec"
	"repro/internal/volren"
)

func main() {
	log.SetFlags(0)

	const particles = 60_000
	pp := core.NewParticlePipeline(particles)
	pp.Extract.VolumeRes = 32
	pp.Extract.Budget = particles / 15

	sim, err := pp.NewSim()
	if err != nil {
		log.Fatal(err)
	}
	m := sim.Matched()
	fmt.Printf("matched envelope (%.4f, %.4f), mismatch %.1fx -> halo resonance\n",
		m.A, m.B, pp.Sim.Mismatch)

	// Fig 5: evolution frames viewed down the beam axis, streamed
	// through the frame-overlapped engine.
	const nFrames = 6
	fmt.Printf("\n%-8s %-8s %-12s %-12s %-10s\n", "frame", "period", "halo frac", "4-fold sym", "hybrid MB")
	s := pp.StreamFrames(context.Background(), core.SimSource(sim, nFrames, 8), core.StreamOptions{
		KeepFrames: true, // per-frame halo statistics need the ensemble
		Buffer:     2,
		Render: &core.RenderOptions{
			Width: 384, Height: 384,
			ViewDir: vec.New(0, 0, 1),
		},
	})
	var lastRep *hybrid.Representation
	for r := range s.Out {
		lastRep = r.Rep
		halo := beam.FractionBeyondRadius(r.Frame.E, 2.5*(m.A+m.B)/2)
		sym := beam.FourFoldSymmetry(r.Frame.E)
		fmt.Printf("%-8d %-8d %-12.4f %-12.3f %-10.2f\n",
			r.Index, (r.Index+1)*8, halo, sym, float64(r.Rep.SizeBytes())/1e6)
		if err := r.FB.WritePNG(fmt.Sprintf("beamhalo_frame%02d.png", r.Index)); err != nil {
			log.Fatal(err)
		}
		s.RecycleFB(r.FB)
	}
	if err := s.Wait(); err != nil {
		log.Fatal(err)
	}

	// Fig 3: inverse-linked transfer function editing.
	fmt.Println("\ntransfer-function linkage (Fig 3): raising the volume profile lowers the point profile")
	tf, err := core.DefaultTF(lastRep)
	if err != nil {
		log.Fatal(err)
	}
	before := tf.Point.Val[1]
	if err := tf.SetVolumeStop(1, 0.9); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  volume stop 1 -> 0.90; point stop 1: %.2f -> %.2f (complementary: %v)\n",
		before, tf.Point.Val[1], tf.Complementary())

	// Fig 1: volume-only vs hybrid on the final frame.
	fmt.Println("\nFig 1 comparison on the final frame:")
	cam, err := render.LookAtBounds(lastRep.Bounds, vec.New(0.2, 0.25, 1), math.Pi/3, 1)
	if err != nil {
		log.Fatal(err)
	}
	tfc, err := core.DefaultTF(lastRep)
	if err != nil {
		log.Fatal(err)
	}
	fbVol, _ := render.NewFramebuffer(384, 384)
	vr, err := volren.New(lastRep.Volume, tfc)
	if err != nil {
		log.Fatal(err)
	}
	vr.Render(fbVol, cam)
	fbHyb, _ := render.NewFramebuffer(384, 384)
	if _, _, err := volren.RenderHybrid(lastRep, tfc, fbHyb, cam, 1.2, false); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  gradient energy: volume-only %.4f, hybrid %.4f (points reveal halo detail)\n",
		gradientEnergy(fbVol), gradientEnergy(fbHyb))
	if err := fbVol.WritePNG("beamhalo_volume_only.png"); err != nil {
		log.Fatal(err)
	}
	if err := fbHyb.WritePNG("beamhalo_hybrid.png"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote beamhalo_frame*.png, beamhalo_volume_only.png, beamhalo_hybrid.png")
}

// gradientEnergy is the mean magnitude of the luminance gradient over
// the frame, a standard proxy for image detail: Fig 1's hybrid rendering
// "more clearly resolves" fine stratifications, which shows as a higher
// value in the halo than the pure volume rendering at any resolution.
func gradientEnergy(fb *render.Framebuffer) float64 {
	var sum float64
	n := 0
	for y := 0; y < fb.H-1; y++ {
		for x := 0; x < fb.W-1; x++ {
			l := fb.Luminance(x, y)
			gx := fb.Luminance(x+1, y) - l
			gy := fb.Luminance(x, y+1) - l
			sum += math.Sqrt(gx*gx + gy*gy)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
