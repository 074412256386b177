// Command linerender draws a pre-integrated field-line file with any
// of the nine Fig 6 techniques (or all of them) and writes PNGs, with
// the per-technique triangle/fragment statistics the paper's
// comparison is about.
//
// Usage:
//
//	linerender -in lines.acfl -tech all -size 512 -out fig6
//	linerender -in lines.acfl -tech sos -prefix 50 -out fig7_050.png
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"strings"

	"repro/internal/hybrid"
	"repro/internal/lineio"
	"repro/internal/render"
	"repro/internal/sos"
	"repro/internal/vec"
)

func techByName(name string) (sos.Technique, bool) {
	for _, t := range sos.Techniques() {
		if t.String() == name {
			return t, true
		}
	}
	return 0, false
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("linerender: ")
	var (
		in     = flag.String("in", "", "input field-line file (.acfl)")
		tech   = flag.String("tech", "sos", "technique name or 'all'")
		size   = flag.Int("size", 512, "image size in pixels")
		prefix = flag.Int("prefix", 0, "render only the first N lines (0 = all)")
		out    = flag.String("out", "lines", "output PNG path or prefix")
	)
	flag.Parse()
	if *in == "" {
		log.Fatal("-in is required")
	}
	if !render.PlausibleSize(*size, *size) {
		log.Fatalf("-size %d out of range: a picture is 1 to 2048 pixels a side", *size)
	}
	if *prefix < 0 {
		log.Fatalf("-prefix %d must be 0 (all lines) or more", *prefix)
	}
	lines, err := lineio.ReadFile(*in)
	if err != nil {
		log.Fatal(err)
	}
	if *prefix > 0 && *prefix < len(lines) {
		lines = lines[:*prefix]
	}
	fmt.Printf("loaded %d lines\n", len(lines))

	// Frame the data.
	bounds := vec.Empty()
	maxStrength := 0.0
	for _, l := range lines {
		for i, p := range l.Points {
			bounds = bounds.ExtendPoint(p)
			if l.Strengths[i] > maxStrength {
				maxStrength = l.Strengths[i]
			}
		}
	}
	if bounds.IsEmpty() {
		log.Fatal("no line geometry to render")
	}
	cam, err := render.LookAtBounds(bounds, vec.New(0.8, 0.45, 0.9), math.Pi/3, 1)
	if err != nil {
		log.Fatal(err)
	}

	renderOne := func(t sos.Technique, dst string) {
		fb, err := render.NewFramebuffer(*size, *size)
		if err != nil {
			log.Fatal(err)
		}
		fb.Clear(hybrid.RGBA{R: 0.02, G: 0.02, B: 0.04, A: 1})
		opts := sos.DefaultOptions(bounds.Diagonal())
		opts.MaxStrength = maxStrength
		opts.CutNormal = vec.New(1, 0, 0)
		opts.CutOffset = bounds.Center().X
		opts.FocusCenter = bounds.Center()
		opts.FocusRadius = bounds.Diagonal() / 6
		st := sos.RenderLines(fb, cam, lines, t, opts)
		if err := fb.WritePNG(dst); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %8d triangles %10d fragments %8v -> %s\n",
			t, st.Triangles, st.Fragments, st.Elapsed.Round(1000), dst)
	}

	if *tech == "all" {
		base := strings.TrimSuffix(*out, ".png")
		for i, t := range sos.Techniques() {
			renderOne(t, fmt.Sprintf("%s_%c_%s.png", base, 'a'+i, t))
		}
		return
	}
	t, ok := techByName(*tech)
	if !ok {
		log.Fatalf("unknown technique %q (try 'all' or one of %v)", *tech, sos.Techniques())
	}
	dst := *out
	if !strings.HasSuffix(dst, ".png") {
		dst += ".png"
	}
	renderOne(t, dst)
}
