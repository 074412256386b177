package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// resultsFile is results.json: what one invocation of the whole suite
// measured, and what -compare reads.
type resultsFile struct {
	Header    resultsHeader               `json:"header"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

type resultsHeader struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	RunSeconds float64 `json:"run_seconds"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Started    string  `json:"started"`
	// Modeled is false on every row: no SetBandwidth, no synthetic
	// stage cost, everything over loopback unthrottled.
	Modeled bool `json:"modeled"`
}

type workloadResults struct {
	Why      string      `json:"why"`
	Runs     []runDetail `json:"runs"`
	EndToEnd []metricRow `json:"end_to_end"`
	PerLayer []metricRow `json:"per_layer"`
}

// metricRow is one metric of one workload over the runs made: the
// median is the value, the quartiles are the spread -compare uses.
type metricRow struct {
	Name       string    `json:"name"`
	Unit       string    `json:"unit"`
	Better     string    `json:"better"`
	Bound      float64   `json:"bound,omitempty"`
	Value      float64   `json:"value"`
	Q1         float64   `json:"q1"`
	Q3         float64   `json:"q3"`
	Values     []float64 `json:"values"`
	Moves      string    `json:"moves,omitempty"`
	Calibrated bool      `json:"calibrated,omitempty"` // filled at smoke size: read it under its home workload
	Modeled    bool      `json:"modeled"`
}

func newRow(d metricDef, values []float64) metricRow {
	q1, q3 := quartiles(values)
	return metricRow{
		Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound, Moves: d.Moves,
		Value: median(values), Q1: q1, Q3: q3, Values: values,
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is how the driver takes a metric's spread.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		return median(vs), median(vs)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 { // the k-th of four cut points
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// runAll runs every workload, each run in its own process so that
// allocation and RSS numbers do not leak between workloads, prints
// every metric by name with its unit, and writes results.json.
func runAll(seed int64, seconds float64, runs int, out string) error {
	if out == "" {
		out = filepath.Join(".bench_build", "out")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{
		Header: resultsHeader{
			Commit: commit(), Seed: seed, Runs: runs, RunSeconds: seconds,
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Started: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: map[string]*workloadResults{},
	}
	failed := 0
	for _, wd := range workloadDefs {
		wr := &workloadResults{Why: wd.Why}
		file.Workloads[wd.Name] = wr
		for _, mode := range []struct {
			trace int
			tag   string
			defs  []metricDef
			rows  *[]metricRow
		}{{0, "e2e", endToEnd, &wr.EndToEnd}, {1, "layers", perLayer, &wr.PerLayer}} {
			values := map[string][]float64{}
			calibrated := map[string]bool{}
			for r := 0; r < runs; r++ {
				s := seed + int64(r)
				fmt.Fprintf(os.Stderr, "bench: %s trace=%d seed=%d\n", wd.Name, mode.trace, s)
				cmd := exec.Command(self, "-workload", wd.Name, "-seed", fmt.Sprint(s),
					"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(mode.trace), "-out", out)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					failed++
					fmt.Fprintf(os.Stderr, "bench: %s trace=%d seed=%d: %v\n", wd.Name, mode.trace, s, err)
				}
				var detail runDetail
				path := filepath.Join(out, fmt.Sprintf("%s.%s.seed%d.json", wd.Name, mode.tag, s))
				if err := readJSON(path, &detail); err != nil {
					return fmt.Errorf("%s: no run detail (%w); output: %s", wd.Name, err, lastLine(stdout))
				}
				os.Remove(path)
				for k, v := range detail.ResultMetrics {
					values[k] = append(values[k], v)
				}
				for _, k := range detail.Calibrated {
					calibrated[k] = true
				}
				detail.ResultMetrics = nil
				wr.Runs = append(wr.Runs, detail)
			}
			for _, d := range mode.defs {
				row := newRow(d, values[d.Name])
				row.Calibrated = calibrated[d.Name]
				*mode.rows = append(*mode.rows, row)
			}
		}
	}
	printResults(os.Stdout, &file)
	if err := writeJSON(filepath.Join(out, "results.json"), file); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}

// commit names the commit measured, when the benchmark runs inside a
// git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func lastLine(out []byte) string {
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	return string(lines[len(lines)-1])
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// printResults prints every metric of every workload by name with its
// unit. Layers filled by the calibration pass are left out of a
// workload's table: they are printed under their home workload.
func printResults(w io.Writer, file *resultsFile) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	tw := tabwriter.NewWriter(bw, 0, 4, 2, ' ', 0)
	for _, wd := range workloadDefs {
		wr := file.Workloads[wd.Name]
		fmt.Fprintf(tw, "\n%s\t\t\t\n", wd.Name)
		for _, row := range append(append([]metricRow(nil), wr.EndToEnd...), wr.PerLayer...) {
			if !row.Calibrated {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\t[%.6g, %.6g]\n", row.Name, row.Value, row.Unit, row.Q1, row.Q3)
			}
		}
	}
	tw.Flush()
}

// verdict is how one metric of one workload compares between two
// results files.
type verdict struct {
	Metric  string
	A, B    float64
	Change  float64 // relative, positive = B is worse
	Spread  float64 // the wider of the two sides' interquartile ranges over their medians
	Bound   float64
	Verdict string // worse, same or unresolved
}

// judge compares one end-to-end metric. B is worse when its median is
// worse than A's by more than the bound. Where either side's
// run-to-run spread is wider than the bound the metric is unresolved,
// not unchanged, unless every run of B reads better than every run of
// A.
func judge(a, b metricRow) verdict {
	v := verdict{Metric: a.Name, A: a.Value, B: b.Value, Bound: a.Bound, Verdict: "same"}
	sign := 1.0
	if a.Better == higher {
		sign = -1
	}
	if a.Value != 0 {
		v.Change = sign * (b.Value - a.Value) / a.Value
	}
	spread := func(r metricRow) float64 {
		if r.Value == 0 {
			return 0
		}
		return (r.Q3 - r.Q1) / r.Value
	}
	v.Spread = max(spread(a), spread(b))
	switch {
	case v.Spread > v.Bound && !allBetter(a, b, sign):
		v.Verdict = "unresolved"
	case v.Change > v.Bound:
		v.Verdict = "worse"
	}
	return v
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b metricRow, sign float64) bool {
	for _, x := range a.Values {
		for _, y := range b.Values {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	var a, b resultsFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tchange\tspread\tbound\tverdict")
	for _, wd := range workloadDefs {
		wa, wb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s is missing from one file", wd.Name)
		}
		for i, ra := range wa.EndToEnd {
			if i >= len(wb.EndToEnd) || wb.EndToEnd[i].Name != ra.Name {
				return false, fmt.Errorf("%s: metric %s is missing from %s", wd.Name, ra.Name, pathB)
			}
			v := judge(ra, wb.EndToEnd[i])
			worse = worse || v.Verdict == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\n",
				wd.Name, v.Metric, v.A, v.B, 100*v.Change, 100*v.Spread, 100*v.Bound, v.Verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	// Exact counts: made by the program at full size, they repeat
	// exactly for a fixed seed, so any difference is a change.
	for _, wd := range workloadDefs {
		wa, wb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		for i, ra := range wa.PerLayer {
			if d, _ := findMetric(perLayer, ra.Name); i >= len(wb.PerLayer) || ra.Calibrated || !d.Exact {
				continue
			}
			if rb := wb.PerLayer[i]; rb.Name == ra.Name && fmt.Sprint(ra.Values) != fmt.Sprint(rb.Values) {
				fmt.Fprintf(w, "count differs: %s %s: %v vs %v\n", wd.Name, ra.Name, ra.Values, rb.Values)
			}
		}
	}
	return worse, nil
}
