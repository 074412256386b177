package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestBinaryLayerStaysSingle: internal/wire is the one place that turns
// fields into bytes and checksums them. Outside it, encoding/binary and
// hash/crc32 are allowed only where the job is a different one: the
// protocol's message framing (a CRC streamed across vectored segments
// into a socket), the one RLE op pair with its host byte-order check
// (binary.NativeEndian), and the delta codec's checksum of the stream it
// reconstructs. A new importer is a new hand-rolled codec: put it on
// internal/wire instead.
func TestBinaryLayerStaysSingle(t *testing.T) {
	allowed := map[string]bool{
		"internal/wire/wire.go":       true,
		"internal/remote/protocol.go": true,
		"internal/render/rle.go":      true,
		"internal/render/delta.go":    true,
	}
	var importers []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/binary" || p == "hash/crc32" {
				importers = append(importers, filepath.ToSlash(path))
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(importers)
	for _, path := range importers {
		if !allowed[path] {
			t.Errorf("%s imports encoding/binary or hash/crc32; encode through internal/wire", path)
		}
		delete(allowed, path)
	}
	for path := range allowed {
		t.Errorf("%s no longer imports encoding/binary or hash/crc32: drop it from the allowlist", path)
	}
}

// TestWorkflowStepNamesArePlain: every "- name:" of the CI workflow is a
// short plain scalar. A step name that grows into a paragraph sooner or
// later holds a ": " or a " #", which YAML reads as a mapping or a
// comment, and the workflow stops parsing; prose belongs in a comment
// above the step.
func TestWorkflowStepNamesArePlain(t *testing.T) {
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for i, line := range strings.Split(string(src), "\n") {
		name, ok := strings.CutPrefix(strings.TrimSpace(line), "- name: ")
		if !ok {
			continue
		}
		steps++
		if len(name) > 40 || strings.Contains(name, ": ") || strings.Contains(name, " #") || strings.ContainsAny(name[:1], "\"'[{&*!|>%@`") {
			t.Errorf("ci.yml line %d: step name %q is not a short plain scalar", i+1, name)
		}
	}
	if steps == 0 {
		t.Error("ci.yml has no named steps")
	}
}
