package repro

import (
	"go/ast"
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

// eachSource parses every non-test Go file of the module outside bench/
// with mode and hands it to fn with its slash-separated path.
func eachSource(t *testing.T, mode parser.Mode, fn func(path string, f *ast.File)) {
	t.Helper()
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
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, mode)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

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
	eachSource(t, parser.ImportsOnly, func(path string, f *ast.File) {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/binary" || p == "hash/crc32" {
				importers = append(importers, path)
				break
			}
		}
	})
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

// TestNoSyncPool: pipeline.FreeList is the one free list. A sync.Pool is
// emptied by the collector, so what a path re-allocates would depend on
// GC timing, which is why render, pipeline and remote each dropped it.
// Non-test source outside bench/ must not bring it back.
func TestNoSyncPool(t *testing.T) {
	eachSource(t, 0, func(path string, f *ast.File) {
		syncName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" {
				syncName = "sync"
				if imp.Name != nil {
					syncName = imp.Name.Name
				}
			}
		}
		if syncName == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Pool" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == syncName {
					t.Errorf("%s uses sync.Pool; recycle through pipeline.FreeList", path)
				}
			}
			return true
		})
	})
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
