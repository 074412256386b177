package repro

import (
	"bufio"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// hotRow is one line of testdata/hotpaths.txt.
type hotRow struct {
	pkg, fn, fact string
	line          int
}

// readHotPaths parses testdata/hotpaths.txt into the toolchain it was
// recorded with ("go1.24") and its rows.
func readHotPaths(t *testing.T) (string, []hotRow) {
	t.Helper()
	f, err := os.Open("testdata/hotpaths.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var version string
	var rows []hotRow
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "#"):
		case len(fields) == 2 && fields[0] == "go":
			version = "go" + fields[1]
		case len(fields) == 3 && (fields[2] == "inline" || fields[2] == "nocopy"):
			rows = append(rows, hotRow{pkg: fields[0], fn: fields[1], fact: fields[2], line: n})
		default:
			t.Fatalf("testdata/hotpaths.txt:%d: want \"package function inline|nocopy\" or \"go 1.N\", got %q", n, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if version == "" {
		t.Fatal("testdata/hotpaths.txt names no toolchain (a \"go 1.N\" line)")
	}
	return version, rows
}

// buildListing runs go build with the given -gcflags over pkgs and
// returns the compiler's output per package, split at its "# pkg"
// headers. The go command replays a cached compile's output, so a
// warm build still prints it.
func buildListing(t *testing.T, goBin, gcflags string, pkgs []string) map[string]string {
	t.Helper()
	out, err := exec.Command(goBin, append([]string{"build", "-gcflags=" + gcflags}, pkgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=%s: %v\n%s", gcflags, err, out)
	}
	byPkg := map[string]string{}
	var pkg string
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if strings.HasPrefix(line, "# ") {
			byPkg[pkg] += b.String()
			b.Reset()
			pkg = strings.TrimSpace(line[2:])
			continue
		}
		b.WriteString(line)
	}
	byPkg[pkg] += b.String()
	return byPkg
}

// duffRE matches a call of the runtime's bulk copy or zero loop in a
// -S listing: DUFFCOPY/DUFFZERO on amd64, a CALL of the symbol elsewhere.
var duffRE = regexp.MustCompile(`DUFF(COPY|ZERO)|runtime\.duff(copy|zero)`)

// TestHotPathContract holds the hot paths to what the compiler does
// with them, as testdata/hotpaths.txt records: which functions inline,
// and which copy or zero no large value through memory. These facts are
// deterministic for one toolchain and GOARCH, where a timing is not:
// a lost inlining or a new 128-byte copy per fragment fails here by
// name instead of as a benchmark drift.
func TestHotPathContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the listed packages twice")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	want, rows := readHotPaths(t)
	gover, err := exec.Command(goBin, "env", "GOVERSION").Output()
	if err != nil {
		t.Fatalf("go env GOVERSION: %v", err)
	}
	if have := strings.TrimSpace(string(gover)); have != want && !strings.HasPrefix(have, want+".") {
		t.Skipf("the contract was recorded with %s and the go command is %s: inlining costs move between releases", want, have)
	}
	var pkgs []string
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.pkg] {
			seen[r.pkg] = true
			pkgs = append(pkgs, r.pkg)
		}
	}
	m2 := buildListing(t, goBin, "-m=2", pkgs)
	asm := buildListing(t, goBin, "-S", pkgs)

	costRE := regexp.MustCompile(`: (can|cannot) inline (\S+?):? .*?cost (\d+)(?: exceeds budget (\d+))?`)
	for _, r := range rows {
		switch r.fact {
		case "inline":
			var verdict []string
			for _, m := range costRE.FindAllStringSubmatch(m2[r.pkg], -1) {
				if m[2] == r.fn {
					verdict = m
				}
			}
			switch {
			case verdict == nil:
				t.Errorf("%s %s (hotpaths.txt:%d): no inlining verdict in the -m=2 output; is it declared?", r.pkg, r.fn, r.line)
			case verdict[1] == "cannot":
				t.Errorf("%s %s (hotpaths.txt:%d) does not inline: cost %s against the budget of %s", r.pkg, r.fn, r.line, verdict[3], verdict[4])
			case !strings.Contains(m2[r.pkg], ": inlining call to "+r.fn+"\n"):
				t.Errorf("%s %s (hotpaths.txt:%d) can inline (cost %s) but no call site in the package inlines it", r.pkg, r.fn, r.line, verdict[3])
			}
		case "nocopy":
			body, ok := asmBody(asm[r.pkg], r.pkg+"."+r.fn)
			if !ok {
				t.Errorf("%s %s (hotpaths.txt:%d): no such function in the -S listing", r.pkg, r.fn, r.line)
				continue
			}
			var calls []string
			for _, line := range strings.Split(body, "\n") {
				if strings.HasPrefix(line, "\t0x") && duffRE.MatchString(line) {
					calls = append(calls, strings.TrimSpace(line))
				}
			}
			if len(calls) > 0 {
				t.Errorf("%s %s (hotpaths.txt:%d) copies or zeroes through runtime.duffcopy/duffzero %d time(s):\n\t%s",
					r.pkg, r.fn, r.line, len(calls), strings.Join(calls, "\n\t"))
			}
		}
	}
}

// nextSymRE matches the start of the next symbol in a -S listing: a
// line that does not begin with the indentation of an instruction.
var nextSymRE = regexp.MustCompile("\n[^\t ]")

// asmBody returns the -S listing of symbol sym: the lines after its
// STEXT header up to the next symbol.
func asmBody(listing, sym string) (string, bool) {
	header := sym + " STEXT"
	i := strings.Index(listing, "\n"+header) + 1 // 0 when not found
	if i == 0 && !strings.HasPrefix(listing, header) {
		return "", false
	}
	body := listing[i+len(header):]
	if j := nextSymRE.FindStringIndex(body); j != nil {
		body = body[:j[0]+1]
	}
	return body, true
}
