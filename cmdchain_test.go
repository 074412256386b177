package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"image/png"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/beam"
	"repro/internal/core"
	"repro/internal/emsim"
	"repro/internal/hexmesh"
	"repro/internal/hybrid"
	"repro/internal/lineio"
	"repro/internal/pario"
)

// TestCmdChainSmoke exercises the file chain the commands implement —
// beamsim writes .acpf frames, partition streams them into .oct/.pts
// pairs, extract streams those into .achy hybrids — entirely through
// pario, asserting the CRC-validated round-trip at every hop: every
// file read back must decode to exactly the data written, and a
// corrupted file must be rejected by its checksum.
func TestCmdChainSmoke(t *testing.T) {
	dir := t.TempDir()
	const n = 3000

	// beamsim: simulate and write raw frames.
	sim, err := beam.NewSim(beam.DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	var framePaths []string
	for i := 0; i < 3; i++ {
		sim.RunPeriods(2)
		f := sim.Snapshot()
		path := filepath.Join(dir, fmt.Sprintf("beam_%04d.acpf", i))
		if err := pario.WriteFrameFile(path, f); err != nil {
			t.Fatal(err)
		}
		// Round trip: the frame must come back bit-exact.
		got, err := pario.ReadFrameFile(path)
		if err != nil {
			t.Fatalf("frame %d failed CRC-validated read: %v", i, err)
		}
		if got.Step != f.Step || got.S != f.S || got.E.Len() != f.E.Len() {
			t.Fatalf("frame %d header mismatch after round trip", i)
		}
		for j := 0; j < f.E.Len(); j += 97 {
			if got.E.X[j] != f.E.X[j] || got.E.Pz[j] != f.E.Pz[j] {
				t.Fatalf("frame %d particle %d mismatch after round trip", i, j)
			}
		}
		framePaths = append(framePaths, path)
	}

	// partition: stream the frame files into two-part tree files, as
	// cmd/partition does.
	pp := core.NewParticlePipeline(n)
	pp.Extract.VolumeRes = 16
	s := pp.StreamFrames(context.Background(), core.FrameFileSource(framePaths...), core.StreamOptions{
		SkipExtract:      true,
		PartitionWorkers: 2,
	})
	var treeBases []string
	for r := range s.Out {
		base := filepath.Join(dir, fmt.Sprintf("part_%04d", r.Index))
		if err := pario.WriteTreeFiles(base, r.Tree); err != nil {
			t.Fatal(err)
		}
		back, err := pario.ReadTreeFiles(base)
		if err != nil {
			t.Fatalf("tree %d failed CRC-validated read: %v", r.Index, err)
		}
		if len(back.Points) != len(r.Tree.Points) || back.NumLeaves() != r.Tree.NumLeaves() {
			t.Fatalf("tree %d shape mismatch after round trip", r.Index)
		}
		for j := range back.Points {
			if back.Points[j] != r.Tree.Points[j] || back.OrigIndex[j] != r.Tree.OrigIndex[j] {
				t.Fatalf("tree %d point %d mismatch after round trip", r.Index, j)
			}
		}
		treeBases = append(treeBases, base)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(treeBases) != len(framePaths) {
		t.Fatalf("partitioned %d frames, want %d", len(treeBases), len(framePaths))
	}

	// extract: trees -> hybrid representations -> .achy files.
	for i, base := range treeBases {
		tree, err := pario.ReadTreeFiles(base)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: 16, Budget: n / 10})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("frame_%04d.achy", i))
		if err := rep.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		back, err := hybrid.ReadFile(path)
		if err != nil {
			t.Fatalf("hybrid %d failed CRC-validated read: %v", i, err)
		}
		var a, b bytes.Buffer
		if err := rep.Write(&a); err != nil {
			t.Fatal(err)
		}
		if err := back.Write(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("hybrid %d not bit-identical after round trip", i)
		}
	}

	// Corruption at any link of the chain must be caught by the CRC.
	for _, victim := range []string{
		framePaths[0],
		treeBases[0] + ".pts",
		filepath.Join(dir, "frame_0000.achy"),
	} {
		data, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 0x40
		if err := os.WriteFile(victim, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasSuffix(victim, ".acpf"):
			_, err = pario.ReadFrameFile(victim)
		case strings.HasSuffix(victim, ".pts"):
			_, err = pario.ReadTreeFiles(strings.TrimSuffix(victim, ".pts"))
		default:
			_, err = hybrid.ReadFile(victim)
		}
		if err == nil {
			t.Errorf("corrupted %s read back without error", filepath.Base(victim))
		}
	}
}

// buildCommands compiles the named commands of this module into a
// temporary directory and returns it.
func buildCommands(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return dir
}

// runCommand runs one built command and returns its output streams and
// exit status.
func runCommand(t *testing.T, bin string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		exit = ee.ExitCode()
	default:
		t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
	}
	return so.String(), se.String(), exit
}

// TestCmdFieldChain drives the §3 commands as a user does: emsim solves
// and writes one .acfl line file per snapshot, linerender draws one.
// Flag misuse must fail with a named error and exit status 1 (it used
// to "succeed": -periods -1 printed all-zero snapshots, -snapshots 0
// printed nothing, both with status 0); every file must round-trip
// CRC-exact; a flipped byte must be refused.
func TestCmdFieldChain(t *testing.T) {
	bin := buildCommands(t, "emsim", "linerender")
	emsim, linerender := filepath.Join(bin, "emsim"), filepath.Join(bin, "linerender")
	dir := t.TempDir()

	for _, c := range []struct {
		args []string
		name string // the flag the error must name
	}{
		{[]string{"-periods", "-1", "-snapshots", "2"}, "-periods"},
		{[]string{"-periods", "0"}, "-periods"},
		{[]string{"-periods", "NaN"}, "-periods"},
		{[]string{"-periods", "+Inf"}, "-periods"},
		{[]string{"-snapshots", "0"}, "-snapshots"},
		{[]string{"-snapshots", "-3"}, "-snapshots"},
		{[]string{"-lines", "-1"}, "-lines"},
	} {
		args := append([]string{"-res", "4", "-out", filepath.Join(dir, "bad")}, c.args...)
		stdout, stderr, exit := runCommand(t, emsim, args...)
		if exit != 1 {
			t.Errorf("emsim %v: exit status %d, want 1", c.args, exit)
		}
		if !strings.Contains(stderr, "emsim: "+c.name) {
			t.Errorf("emsim %v: error %q does not name %s", c.args, strings.TrimSpace(stderr), c.name)
		}
		if strings.Contains(stdout, "snapshot") {
			t.Errorf("emsim %v: printed snapshots before failing:\n%s", c.args, stdout)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "bad*")); len(left) != 0 {
		t.Errorf("refused runs left files behind: %v", left)
	}

	// emsim → .acfl.
	prefix := filepath.Join(dir, "cav")
	stdout, stderr, exit := runCommand(t, emsim, "-res", "6", "-periods", "3", "-snapshots", "2", "-lines", "25", "-out", prefix)
	if exit != 0 {
		t.Fatalf("emsim: exit status %d\n%s", exit, stderr)
	}
	if strings.Count(stdout, "snapshot ") != 2 || strings.Contains(stdout, "energy 0,") {
		t.Errorf("emsim output does not show two live snapshots:\n%s", stdout)
	}
	var files []string
	for snap := 0; snap < 2; snap++ {
		path := fmt.Sprintf("%s_snap%02d.acfl", prefix, snap)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines, err := lineio.ReadFile(path)
		if err != nil {
			t.Fatalf("%s failed its CRC-validated read: %v", filepath.Base(path), err)
		}
		if len(lines) == 0 || len(lines) > 25 {
			t.Fatalf("%s holds %d lines, want 1..25", filepath.Base(path), len(lines))
		}
		if !bytes.Equal(lineio.Append(nil, lines), data) || lineio.LinesBytes(lines) != int64(len(data)) {
			t.Errorf("%s is not byte-identical after a read/write round trip", filepath.Base(path))
		}
		files = append(files, path)
	}

	// .acfl → linerender → PNG.
	pic := filepath.Join(dir, "pic.png")
	stdout, stderr, exit = runCommand(t, linerender, "-in", files[1], "-tech", "sos", "-size", "64", "-out", pic)
	if exit != 0 {
		t.Fatalf("linerender: exit status %d\n%s", exit, stderr)
	}
	if !strings.Contains(stdout, "triangles") {
		t.Errorf("linerender reported no statistics:\n%s", stdout)
	}
	f, err := os.Open(pic)
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(f)
	f.Close()
	if err != nil {
		t.Fatalf("linerender wrote an unreadable PNG: %v", err)
	}
	if b := img.Bounds(); b.Dx() != 64 || b.Dy() != 64 {
		t.Errorf("picture is %dx%d, want 64x64", b.Dx(), b.Dy())
	}

	// A flipped byte anywhere in the file is refused by name, status 1.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	bad := filepath.Join(dir, "flipped.acfl")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, exit = runCommand(t, linerender, "-in", bad, "-out", filepath.Join(dir, "never.png"))
	if exit != 1 || !strings.Contains(stderr, "linerender: lineio:") {
		t.Errorf("linerender on a corrupted file: exit status %d, error %q; want 1 and a lineio error", exit, strings.TrimSpace(stderr))
	}
	if _, err := os.Stat(filepath.Join(dir, "never.png")); err == nil {
		t.Error("linerender wrote a picture from a corrupted file")
	}
}

// TestAdvancePeriodsIgnoresNonsense pins the library side of the same
// bug: a non-positive or non-finite period count advances nothing —
// stated in AdvancePeriods, not left to what int(math.Ceil(NaN))
// happens to be on the platform.
func TestAdvancePeriodsIgnoresNonsense(t *testing.T) {
	cav := hexmesh.DefaultCavity(4)
	mesh, err := hexmesh.BuildCavity(cav)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := emsim.New(emsim.DefaultConfig(mesh, cav))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []float64{0, -1, -1e300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		sim.AdvancePeriods(n)
		if sim.Step() != 0 {
			t.Fatalf("AdvancePeriods(%g) advanced to step %d", n, sim.Step())
		}
	}
	sim.AdvancePeriods(0.5)
	if sim.Step() == 0 {
		t.Fatal("AdvancePeriods(0.5) advanced nothing")
	}
}
