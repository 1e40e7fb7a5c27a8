package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"quickr"
	"quickr/internal/lplan"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond, ok := percentile(xs, 0.95)
	if v != 190 || beyond != 10 || !ok {
		t.Fatalf("p95 of 1..200 = %v with %d beyond (ok=%v), want 190 with 10", v, beyond, ok)
	}
	v, beyond, ok = percentile(xs[:199], 0.95)
	if v != 190 || beyond != 9 || ok {
		t.Fatalf("p95 of 1..199 = %v with %d beyond (ok=%v), want 190 with 9 and not ok", v, beyond, ok)
	}
	if _, beyond, ok := percentile(xs[:20], 0.5); beyond != 10 || !ok {
		t.Fatalf("p50 of 20 samples leaves %d beyond (ok=%v), want 10", beyond, ok)
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported ok")
	}
}

func TestSelfTimesSubtractChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 50}, // overlaps a by 10
		{Name: "c", Parent: 1, Start: 15, End: 20},
		{Name: "d", Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "other", Parent: -1, Start: 0, End: 7},
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 30 - 5, 20, 5, 30, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestAccuracyTally(t *testing.T) {
	kinds := []lplan.AggKind{lplan.AggSum, lplan.AggMax, lplan.AggAvg}
	exact := []quickr.GroupEstimate{
		{Key: []any{"a"}, Values: []any{int64(100), int64(9), 2.0}},
		{Key: []any{"b"}, Values: []any{int64(50), int64(7), 3.0}},
		{Key: []any{"c"}, Values: []any{int64(10), int64(1), 1.0}},
		{Key: []any{int64(4)}, Values: []any{int64(10), int64(1), 1.0}},
	}
	approx := []quickr.GroupEstimate{
		// SUM covered (|104-100| <= 5), AVG not (|2.5-2| > 0.1).
		{Key: []any{"a"}, Values: []any{int64(104), int64(9), 2.5}, CI95: []float64{5, 0, 0.1}},
		// SUM misses by 10 > 9 + 0.5 rounding slack; AVG exact with zero width.
		{Key: []any{"b"}, Values: []any{int64(60), int64(7), 3.0}, CI95: []float64{9, 0, 0}},
		// A string "4" must not match the integer key 4.
		{Key: []any{"4"}, Values: []any{int64(10), int64(1), 1.0}, CI95: []float64{0, 0, 0}},
	}
	var a accuracyTally
	a.add(exact, approx, kinds)
	if a.Groups != 4 || a.Missed != 2 {
		t.Fatalf("groups %d missed %d, want 4 and 2", a.Groups, a.Missed)
	}
	if a.Estimates != 4 || a.Covered != 2 {
		t.Fatalf("estimates %d covered %d, want 4 and 2 (MAX is not an HT estimate)", a.Estimates, a.Covered)
	}
	if a.Coverage() != 0.5 || a.Recall() != 0.5 || a.MissedFrac() != 0.5 {
		t.Fatalf("coverage %v recall %v missed %v, want 0.5 each", a.Coverage(), a.Recall(), a.MissedFrac())
	}
}

func TestSpearman(t *testing.T) {
	if r := spearman([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}); math.Abs(r-1) > 1e-12 {
		t.Fatalf("monotone rho = %v, want 1", r)
	}
	if r := spearman([]float64{1, 2, 3, 4}, []float64{4, 3, 2, 1}); math.Abs(r+1) > 1e-12 {
		t.Fatalf("reversed rho = %v, want -1", r)
	}
	if r := spearman([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("rho without spread = %v, want 0", r)
	}
}

func TestManifestMatchesCommittedBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	generated, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, generated) {
		t.Fatalf("BENCHMARK.json is stale; regenerate with: cd perfbench && go run . -manifest > ../BENCHMARK.json")
	}
}

// smokeScale is the smallest data size at which ASALQA still places
// every sampler type on the ad-hoc suite.
const smokeScale = 0.3

// TestSmokeEveryWorkloadPrintsEveryMetric runs each workload briefly at
// a small size, untraced and traced, and checks that every metric is
// printed by name with its unit, that machine info is printed, and that
// the last line is the result object.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads() {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			c := &runCtx{seed: 3, seconds: time.Second, trace: traced, scale: smokeScale, outDir: t.TempDir(), out: &out}
			res, err := execute(c, wl)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.Name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", wl.Name, traced, res.Failed, res.Attempted)
			}
			text := out.String()
			if !regexp.MustCompile(`(?m)^machine cores=\d+ gomaxprocs=\d+ go=go`).MatchString(text) {
				t.Errorf("%s trace=%v: no machine info line", wl.Name, traced)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				re := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(d.Name) + `\s+\S+\s+` + regexp.QuoteMeta(d.Unit) + `(\s|$)`)
				if !re.MatchString(text) {
					t.Errorf("%s trace=%v: metric %s with unit %s not printed", wl.Name, traced, d.Name, d.Unit)
				}
			}
			lines := strings.Split(strings.TrimSpace(text), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not JSON: %v", wl.Name, traced, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s trace=%v: result keys %v", wl.Name, traced, last)
			}
		}
	}
}
