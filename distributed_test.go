package repro

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestVizworkerTwoProcessRoundTrip is the end-to-end acceptance test
// of distributed stage execution: it builds the real cmd/vizworker
// binary, runs it as a second OS process, and drives StreamFrames with
// ExtractAddrs across the process boundary — the frames must come back
// bit-identical to an all-local run of the same configuration.
func TestVizworkerTwoProcessRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("two-process test builds cmd/vizworker; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "vizworker")
	build := exec.Command("go", "build", "-o", bin, "./cmd/vizworker")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/vizworker: %v\n%s", err, out)
	}

	worker := exec.Command(bin, "-addr", "127.0.0.1:0")
	stdout, err := worker.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := worker.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		worker.Process.Kill()
		worker.Wait()
	})

	// Scrape the serving line for the kernel-chosen port.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); strings.HasPrefix(line, "vizworker: serving") && i >= 0 {
				fields := strings.Fields(line[i+4:])
				if len(fields) > 0 {
					addrCh <- fields[0]
					return
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("vizworker never announced its address")
	}

	pipelineFor := func() (*core.ParticlePipeline, core.FrameSource, error) {
		pp := core.NewParticlePipeline(5000)
		pp.Extract.VolumeRes = 12
		pp.Extract.Workers = 2 // pin: splat slab boundaries must match across processes
		pp.Tree.Workers = 2
		sim, err := pp.NewSim()
		if err != nil {
			return nil, nil, err
		}
		return pp, core.SimSource(sim, 3, 2), nil
	}

	pp, src, err := pipelineFor()
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	s := pp.StreamFrames(context.Background(), src, core.StreamOptions{ExtractWorkers: 2})
	for r := range s.Out {
		want = append(want, r.Rep.AppendBinary(nil))
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}

	pp, src, err = pipelineFor()
	if err != nil {
		t.Fatal(err)
	}
	s = pp.StreamFrames(context.Background(), src, core.StreamOptions{
		ExtractAddrs:   []string{addr},
		ExtractWorkers: 2,
	})
	got := 0
	for r := range s.Out {
		if !bytes.Equal(r.Rep.AppendBinary(nil), want[r.Index]) {
			t.Errorf("frame %d: cross-process extraction not bit-identical", r.Index)
		}
		got++
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Fatalf("distributed run emitted %d frames, want %d", got, len(want))
	}
}
