package emsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/hexmesh"
)

// TestExactRecip: exactRecip accepts exactly the positive powers of two
// whose reciprocal is finite and returns that reciprocal, and for each
// spacing it accepts x*r has the bits of x/d over a million seeded bit
// patterns (subnormals, infinities and NaN among them) plus the special
// values. NaN is compared as NaN.
func TestExactRecip(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), 1, -1, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Ldexp(1, -1022), math.Inf(1), math.Inf(-1), math.NaN()}
	for _, c := range []struct {
		name string
		d    float64
		want float64 // the reciprocal; 0 means refused
	}{
		{"1/16", 1.0 / 16, 16},
		{"2^-1023", math.Ldexp(1, -1023), math.Ldexp(1, 1023)},
		{"2^1023", math.Ldexp(1, 1023), math.Ldexp(1, -1023)},
		{"0.1", 0.1, 0},
		{"1/6", 1.0 / 6, 0},
		{"0", 0, 0},
		{"-1/16", -1.0 / 16, 0},
		{"NaN", math.NaN(), 0},
		{"+Inf", math.Inf(1), 0},
		{"2^-1074", math.Ldexp(1, -1074), 0}, // 2^1074 overflows
	} {
		r, ok := exactRecip(c.d)
		if ok != (c.want != 0) {
			t.Errorf("%s: accepted %v, want %v", c.name, ok, c.want != 0)
			continue
		}
		if !ok {
			continue
		}
		if math.Float64bits(r) != math.Float64bits(c.want) {
			t.Errorf("%s: reciprocal %g, want %g", c.name, r, c.want)
		}
		state := uint64(48)
		bad := 0
		for n := 0; n < 1_000_000+len(specials); n++ {
			var x float64
			if n < len(specials) {
				x = specials[n]
			} else {
				state += 0x9e3779b97f4a7c15
				z := state
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				x = math.Float64frombits(z ^ (z >> 31))
			}
			q, p := x/c.d, x*r
			if math.IsNaN(q) && math.IsNaN(p) {
				continue
			}
			if math.Float64bits(q) != math.Float64bits(p) {
				if bad++; bad <= 5 {
					t.Errorf("%s: %g/d = %x, %g*r = %x", c.name, x, math.Float64bits(q), x, math.Float64bits(p))
				}
			}
		}
	}
}

// TestSweepPathFollowsSpacing: New takes the multiply exactly where the
// stock cavity's spacing is a power of two, so that losing the fast
// path fails a test and not only the benchmark.
func TestSweepPathFollowsSpacing(t *testing.T) {
	for _, c := range []struct {
		res int
		mul bool
	}{{4, true}, {8, true}, {16, true}, {6, false}, {9, false}, {10, false}} {
		cav := hexmesh.DefaultCavity(c.res)
		m, err := hexmesh.BuildCavity(cav)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(DefaultConfig(m, cav))
		if err != nil {
			t.Fatal(err)
		}
		want := [3]float64{m.Dx, m.Dy, m.Dz}
		if c.mul {
			want = [3]float64{1 / m.Dx, 1 / m.Dy, 1 / m.Dz}
		}
		if s.mul != c.mul || [3]float64{s.fx, s.fy, s.fz} != want {
			t.Errorf("res %d (spacing %g): multiply %v with factors %g %g %g, want %v with %v",
				c.res, m.Dx, s.mul, s.fx, s.fy, s.fz, c.mul, want)
		}
	}
}

// fusedRE matches a fused multiply-add instruction in an arm64 -S
// listing and captures its sim.go line.
var fusedRE = regexp.MustCompile(`\bsim\.go:(\d+)\)\s+FN?M(?:ADD|SUB)[DS]\s`)

// TestMultiplyLoopsAddNoFusedArithmetic cross-compiles the package for
// arm64, which fuses a multiply into a following add or subtract unless
// the source rounds the product explicitly, and checks the multiply
// loops of subCurlMul and addCurlMul: each may fuse only what the
// divide loop of its twin (subCurlDiv, addCurlDiv) fuses, dt*curl into
// the update. A fused curl would round (a1-a0)*r
// together with the subtraction, where the division path rounds the
// quotient first, and the multiply path would leave the reference's
// bits on arm64.
func TestMultiplyLoopsAddNoFusedArithmetic(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the package")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(goBin, "build", "-gcflags=-S", ".")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GOARCH=arm64 go build -gcflags=-S: %v\n%s", err, out)
	}
	fused := map[int]int{} // sim.go line -> fused instructions
	for _, m := range fusedRE.FindAllSubmatch(out, -1) {
		line, _ := strconv.Atoi(string(m[1]))
		fused[line]++
	}

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sim.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	line := func(p token.Pos) int { return fset.Position(p).Line }
	for _, name := range []string{"subCurl", "addCurl"} {
		// The two loops of the twins, told apart by whether they divide,
		// and each loop's update statement (h -= dt*curl, e += dt*curl).
		var mulLoop, divLoop *ast.RangeStmt
		for _, twin := range []string{name + "Div", name + "Mul"} {
			var fn *ast.FuncDecl
			for _, d := range f.Decls {
				if d, ok := d.(*ast.FuncDecl); ok && d.Name.Name == twin {
					fn = d
				}
			}
			if fn == nil {
				t.Fatalf("sim.go declares no %s", twin)
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				loop, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				divides := false
				ast.Inspect(loop.Body, func(n ast.Node) bool {
					if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.QUO {
						divides = true
					}
					return true
				})
				if divides {
					divLoop = loop
				} else {
					mulLoop = loop
				}
				return false
			})
		}
		if mulLoop == nil || divLoop == nil {
			t.Fatalf("%s: want one multiply loop and one divide loop", name)
		}
		update := func(loop *ast.RangeStmt) int {
			u := 0
			ast.Inspect(loop.Body, func(n ast.Node) bool {
				if a, ok := n.(*ast.AssignStmt); ok && (a.Tok == token.SUB_ASSIGN || a.Tok == token.ADD_ASSIGN) {
					u = line(a.Pos())
				}
				return true
			})
			if u == 0 {
				t.Fatalf("%s: a loop without its update statement", name)
			}
			return u
		}
		mulUpdate, divUpdate := update(mulLoop), update(divLoop)
		allowed := fused[divUpdate]
		if allowed == 0 {
			t.Fatalf("%s: no fused instruction on the divide loop's update (sim.go:%d); the listing does not show what this test reads", name, divUpdate)
		}
		for l := line(mulLoop.Pos()); l <= line(mulLoop.End()); l++ {
			if l != mulUpdate && fused[l] > 0 {
				t.Errorf("%s: %d fused instruction(s) at sim.go:%d in the multiply loop", name, fused[l], l)
			}
		}
		if fused[mulUpdate] > allowed {
			t.Errorf("%s: the multiply loop's update (sim.go:%d) fuses %d, the divide loop's %d", name, mulUpdate, fused[mulUpdate], allowed)
		}
	}
}
