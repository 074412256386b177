package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The ship graph. Its roots are every declaration of the package mains
// under cmd/ and examples/ and of bench/'s non-test files; an edge is any
// identifier go/types resolves inside a live declaration. A method of a
// live type is live when live code selects it, or when its name is a
// method of an interface that live code declares or of ifaceMethods
// below. A const is live with its group (iota), an init and a blank var
// with their package.
//
// An internal/ declaration the walk does not reach has three ends, never
// a fourth: it is deleted with the tests that exist only for it; it moves
// into its package's _test.go when it is test support for shipped code
// and only that package's tests use it; or it is listed in unshipped, as
// are the things only it reaches, with one of four reasons —
//
//	oracle: a reference implementation tests compare shipped code against
//	seam:   something a test substitutes or varies
//	diag:   a diagnostic the tests of other packages read
//	fig:    a paper-figure function ROADMAP item 8 is waiting for
//
// "Might be useful" is not on that list.
var unshipped = map[string]string{
	"internal/core.ParticlePipeline.Partition":  "oracle: the serial partition the streamed and distributed chains are held to, bit for bit",
	"internal/core.ParticlePipeline.Hybrid":     "oracle: the serial extraction, the other half of that reference",
	"internal/render.Rasterizer.DrawTriangle":   "oracle: the serial immediate path every batched, row-banded triangle is compared with",
	"internal/core.ConvertPlotType":             "fig: Fig 2's phase-plot conversion without re-partitioning (§2.3), a row of item 8's table",
	"internal/render.Framebuffer.CoveredPixels": "diag: \"did anything draw\" in the tests of core, sos, volren and the root",
	"internal/hexmesh.BuildBox":                 "seam: the all-vacuum mesh seeding's tests substitute for a cavity",
}

// unsetFields are the exported fields of internal/'s exported struct
// types that no shipped declaration assigns and no binary, example or
// workload mentions: each is a seam, listed with the test that varies
// it. An unkeyed composite literal assigns every field of its type. A
// field no test varies either is not a setting; make it a constant.
var unsetFields = map[string]string{
	"internal/emsim.Config.Freq":                  "seam: TestCavityResonanceNearTM010 drives off the mode it then measures",
	"internal/core.StreamOptions.KeepTrees":       "seam: TestStreamRecyclingLeavesCallerData and the partition-only tests keep the trees",
	"internal/core.FieldStreamOptions.TraceB":     "seam: TestFieldStream turns the magnetic lines on",
	"internal/remote.FleetOptions.RequestTimeout": "seam: shortened per-attempt deadlines in the fleet fault tests",
	"internal/remote.FleetOptions.Retry":          "seam: millisecond backoff in the fleet fault tests",
	"internal/remote.FleetOptions.BandwidthBps":   "seam: the modeled link of BenchmarkFleetExtract/DistributedRender/DistributedExtract (item 1(c))",
	"internal/remote.ClientOptions.IdleTimeout":   "seam: shortened in the dead-peer heartbeat tests",
	"internal/remote.ServiceOptions.IdleTimeout":  "seam: shortened in the idle-session reaping tests",
	"internal/remote.ClientOptions.Retry":         "seam: millisecond backoff in the reconnect tests",
}

// ifaceMethods are the methods of the standard library's interfaces the
// repo's types are handed to: error, fmt.Stringer, io.*, sort and
// container/heap, net.Conn and net.Addr.
var ifaceMethods = map[string]bool{
	"Error": true, "String": true,
	"Read": true, "Write": true, "Close": true, "ReadFrom": true, "WriteTo": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"LocalAddr": true, "RemoteAddr": true, "SetDeadline": true,
	"SetReadDeadline": true, "SetWriteDeadline": true, "Network": true,
}

// shipDecl is one package-level declaration or method.
type shipDecl struct {
	pkg   string // directory, slash-separated: "internal/render"
	name  string // "Func", "Type", "Type.Method"
	node  ast.Node
	lines int
	recv  *shipDecl   // a method's receiver type
	group []*shipDecl // a const's parenthesised group
	live  bool
}

func (d *shipDecl) String() string { return d.pkg + "." + d.name }

// method returns the method name of a method declaration.
func (d *shipDecl) method() string { return d.name[strings.IndexByte(d.name, '.')+1:] }

// shipGraph is the module's non-test source (and bench/'s), type-checked,
// and what of it has been reached so far.
type shipGraph struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package // by import path
	files  map[string][]*ast.File    // by directory
	info   *types.Info
	roots  map[string]bool // the root directories
	decls  map[types.Object]*shipDecl
	byPkg  map[string][]*shipDecl // by directory, in source order
	ifaces map[string]bool        // method names of live interfaces
	work   []*shipDecl
	set    map[*types.Var]bool // fields a live declaration assigns or a root mentions
}

// Import type-checks repro/... from source (repro/bench is the nested
// module's directory), the rest through the standard library's source
// importer.
func (g *shipGraph) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, "repro/") {
		return g.std.Import(path)
	}
	if p, ok := g.pkgs[path]; ok {
		return p, nil
	}
	dir := strings.TrimPrefix(path, "repro/")
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(g.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go source in %s", dir)
	}
	p, err := (&types.Config{Importer: g}).Check(path, g.fset, files, g.info)
	if err != nil {
		return nil, err
	}
	g.pkgs[path], g.files[dir] = p, files
	return p, nil
}

// index records the declarations of one checked directory.
func (g *shipGraph) index(dir string) {
	add := func(obj types.Object, name string, node ast.Node) *shipDecl {
		d := &shipDecl{pkg: dir, name: name, node: node,
			lines: g.fset.Position(node.End()).Line - g.fset.Position(node.Pos()).Line + 1}
		g.decls[obj] = d
		g.byPkg[dir] = append(g.byPkg[dir], d)
		return d
	}
	var methods []*ast.FuncDecl
	for _, f := range g.files[dir] {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv != nil {
					methods = append(methods, decl)
				} else {
					add(g.info.Defs[decl.Name], decl.Name.Name, decl)
				}
			case *ast.GenDecl:
				var group []*shipDecl
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(g.info.Defs[spec.Name], spec.Name.Name, spec)
					case *ast.ValueSpec:
						for i, id := range spec.Names {
							d := add(g.info.Defs[id], id.Name, spec)
							if i > 0 {
								d.lines = 0 // "a, b = 1, 2" is counted once
							}
							group = append(group, d)
						}
					}
				}
				if decl.Tok == token.CONST && decl.Lparen.IsValid() {
					for _, d := range group {
						d.group = group
					}
				}
			}
		}
	}
	for _, m := range methods {
		fn := g.info.Defs[m.Name].(*types.Func)
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named := recv.(*types.Named).Obj()
		add(fn, named.Name()+"."+m.Name.Name, m).recv = g.decls[named]
	}
}

func (g *shipGraph) mark(d *shipDecl) {
	if d == nil || d.live {
		return
	}
	d.live = true
	g.work = append(g.work, d)
	for _, c := range d.group {
		g.mark(c)
	}
}

// reach follows edges from everything marked so far to the fixed point.
func (g *shipGraph) reach() {
	entered := map[string]bool{}
	for len(g.work) > 0 {
		d := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		if !entered[d.pkg] { // the package is linked in: its inits and blank vars run
			entered[d.pkg] = true
			for _, o := range g.byPkg[d.pkg] {
				if o.name == "init" || o.name == "_" {
					g.mark(o)
				}
			}
		}
		grew := false
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := origin(g.info.Uses[n])
				g.mark(g.decls[obj])
				if v, ok := obj.(*types.Var); ok && v.IsField() && g.roots[d.pkg] {
					g.set[v] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						grew = grew || !g.ifaces[id.Name]
						g.ifaces[id.Name] = true
					}
				}
			case *ast.KeyValueExpr:
				g.assigned(n.Key)
			case *ast.CompositeLit:
				if len(n.Elts) == 0 {
					break
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
					break
				}
				if st, ok := g.info.Types[n].Type.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						g.set[st.Field(i).Origin()] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					g.assigned(lhs)
				}
			case *ast.IncDecStmt:
				g.assigned(n.X)
			}
			return true
		})
		// The methods the interface rule admits: of this type if d is
		// one, of every live type if d declared new interface methods.
		for _, ds := range g.byPkg {
			for _, m := range ds {
				if m.recv != nil && m.recv.live && (grew || m.recv == d) &&
					(g.ifaces[m.method()] || ifaceMethods[m.method()]) {
					g.mark(m)
				}
			}
		}
	}
}

// assigned notes a struct field written by a live declaration.
func (g *shipGraph) assigned(e ast.Expr) {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		e = sel.Sel
	}
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := origin(g.info.Uses[id]).(*types.Var); ok && v.IsField() {
			g.set[v] = true
		}
	}
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// loadShipGraph type-checks every root, whatever the roots import, and
// every directory of internal/ — a package nothing imports is reported,
// not missed.
func loadShipGraph(t *testing.T) *shipGraph {
	// The standard library from its pure-Go files, so that the walk
	// needs no C toolchain.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	g := &shipGraph{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		roots: map[string]bool{"bench": true},
		decls: map[types.Object]*shipDecl{},
		byPkg: map[string][]*shipDecl{},
	}
	check := []string{"bench"}
	for _, top := range []string{"cmd", "examples", "internal"} {
		dirs, _ := filepath.Glob(top + "/*")
		for _, dir := range dirs {
			if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
				dir = filepath.ToSlash(dir)
				check = append(check, dir)
				g.roots[dir] = top != "internal"
			}
		}
	}
	for _, dir := range check {
		if _, err := g.Import("repro/" + dir); err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
	}
	for dir := range g.files {
		g.index(dir)
	}
	return g
}

// check walks the graph and holds internal/ to the two lists. It returns
// what is wrong, one line each, and the per-package report.
func (g *shipGraph) check(unshipped, unsetFields map[string]string) (problems, report []string) {
	for _, ds := range g.byPkg {
		for _, d := range ds {
			d.live = false
		}
	}
	g.ifaces, g.set = map[string]bool{}, map[*types.Var]bool{}
	complain := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	// What ships: the roots and what they reach.
	var internal []string
	for dir, ds := range g.byPkg {
		if g.roots[dir] {
			for _, d := range ds {
				g.mark(d)
			}
		} else {
			internal = append(internal, dir)
		}
	}
	g.reach()
	sort.Strings(internal)

	// Fields, before the allow-listed declarations join the walk.
	seen := map[string]bool{}
	for _, dir := range internal {
		for _, d := range g.byPkg[dir] {
			ts, ok := d.node.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() {
				continue
			}
			st, ok := g.info.Defs[ts.Name].Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				name := d.String() + "." + f.Name()
				_, listed := unsetFields[name]
				seen[name] = listed
				switch {
				case !g.set[f] && !listed:
					complain("field %s is given a value by no binary, example or workload: make it a constant, or list the test that varies it", name)
				case g.set[f] && listed:
					complain("field %s is listed but ships with a value: drop the entry", name)
				}
			}
		}
	}
	for name := range unsetFields {
		if !seen[name] {
			complain("field list entry %s names no field of an exported struct: drop it", name)
		}
	}

	// Declarations: the report counts what the roots alone do not
	// reach; the listed ones then join the walk as extra roots, and
	// nothing may be left over.
	var listed []*shipDecl
	total, totalLines := 0, 0
	for _, dir := range internal {
		n, lines := 0, 0
		for _, d := range g.byPkg[dir] {
			if !d.live && d.name != "_" {
				n, lines = n+1, lines+d.lines
			}
			if _, ok := unshipped[d.String()]; ok {
				listed = append(listed, d)
				if d.live {
					complain("%s is listed but ships: drop the entry", d)
				}
			}
		}
		if n > 0 {
			report = append(report, fmt.Sprintf("%-20s %3d unreached declarations, %4d lines", dir, n, lines))
		}
		total, totalLines = total+n, totalLines+lines
	}
	report = append(report, fmt.Sprintf("%d unreached declarations, %d lines; %d declarations and %d fields listed",
		total, totalLines, len(unshipped), len(unsetFields)))
	found := map[string]bool{}
	for _, d := range listed {
		found[d.String()] = true
		g.mark(d)
	}
	g.reach()
	for name, reason := range unshipped {
		if !found[name] {
			complain("allow-list entry %s names nothing in internal/: drop it", name)
		}
		if kind, _, _ := strings.Cut(reason, ": "); kind != "oracle" && kind != "seam" && kind != "diag" && kind != "fig" {
			complain("allow-list entry %s: reason %q is none of oracle, seam, diag, fig", name, reason)
		}
	}
	for _, dir := range internal {
		any := false
		for _, d := range g.byPkg[dir] {
			any = any || d.live
			if !d.live && d.name != "_" {
				complain("%s (%s, %d lines) is reached by no binary, example or workload",
					d, g.fset.Position(d.node.Pos()), d.lines)
			}
		}
		if !any {
			complain("%s has no shipped importer", dir)
		}
	}
	if n := len(unshipped) + len(unsetFields); n > 30 {
		complain("%d allow-list entries; the ceiling is 30", n)
	}
	sort.Strings(problems)
	return problems, report
}

// TestInternalIsWhatShips: internal/ holds what a binary, an example or a
// benchmark workload can reach, plus the two short lists above. A new
// declaration nothing ships fails here by name — delete it, move it into
// the test that wants it, or give it a line of justification — and so
// does a listed name that has become reachable or has gone. Run with -v
// for the per-package report.
func TestInternalIsWhatShips(t *testing.T) {
	g := loadShipGraph(t)
	problems, report := g.check(unshipped, unsetFields)
	for _, p := range problems {
		t.Error(p)
	}
	for _, line := range report {
		t.Log(line)
	}

	// The check can see both kinds of drift: an entry dropped from
	// either list is a leftover again, and an entry for something that
	// ships, or for nothing, is stale.
	without := func(m map[string]string, drop string, add ...string) map[string]string {
		out := map[string]string{}
		for k, v := range m {
			if k != drop {
				out[k] = v
			}
		}
		for _, k := range add {
			out[k] = "seam: not really"
		}
		return out
	}
	// beam.Envelope is no option struct, and its Ap ships only through
	// rk4Smooth's unkeyed Envelope{out.a, out.b, out.ap, out.bp}.
	problems, _ = g.check(
		without(unshipped, "internal/hexmesh.BuildBox", "internal/hexmesh.BuildCavity", "internal/hexmesh.Gone"),
		without(unsetFields, "internal/emsim.Config.Freq", "internal/emsim.Config.Mesh", "internal/emsim.Config.Gone", "internal/beam.Envelope.Ap"))
	got := strings.Join(problems, "\n")
	for _, want := range []string{
		"internal/hexmesh.BuildBox (",
		"internal/hexmesh.BuildCavity is listed but ships",
		"internal/hexmesh.Gone names nothing",
		"field internal/emsim.Config.Freq is given a value by no",
		"field internal/emsim.Config.Mesh is listed but ships",
		"internal/emsim.Config.Gone names no field",
		"field internal/beam.Envelope.Ap is listed but ships",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("the check missed a planted problem: no %q in\n%s", want, got)
		}
	}
	if len(problems) != 7 {
		t.Errorf("seven problems planted, %d reported:\n%s", len(problems), got)
	}
}
