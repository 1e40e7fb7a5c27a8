// Command perfbench is the repository's end-to-end benchmark: it times
// exact and approximate execution of the engine on a named workload,
// checks every answer, and prints each metric with its unit. With
// -trace 1 it instead reports per-layer metrics, measured from spans
// recorded around calls into each module.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload adhoc --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// runCtx carries one run's settings and collects its results.
type runCtx struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// scale multiplies every data size: 1 is the benchmark's size, and
	// the tests run smaller.
	scale  float64
	outDir string
	out    io.Writer

	tr        *tracer
	attempted atomic.Int64
	failed    atomic.Int64
	metrics   map[string]metricValue
	machine   machineInfo
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupReps is how many times a run sets up its workload; setup_s is
// the median.
func (c *runCtx) setupReps() int {
	if c.scale < 1 {
		return 1
	}
	return 3
}

// set records a metric. Units come from the metric tables so a printed
// metric can never disagree with BENCHMARK.json.
func (c *runCtx) set(name string, v float64, note string) {
	unit := ""
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			unit = d.Unit
		}
	}
	if unit == "" {
		panic("perfbench: undefined metric " + name)
	}
	c.metrics[name] = metricValue{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(c.out, "metric %-34s %14.6g %-10s%s\n", name, v, unit, note)
}

// info prints a reading-only figure that is not a gated metric.
func (c *runCtx) info(format string, args ...any) {
	fmt.Fprintf(c.out, "info   "+format+"\n", args...)
}

// op counts one attempted operation and, when err is non-nil, one
// failure.
func (c *runCtx) op(err error) {
	c.attempted.Add(1)
	if err != nil {
		c.fail(err)
	}
}

// fail records a failure of an already-counted operation.
func (c *runCtx) fail(err error) {
	c.failed.Add(1)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
}

// rng returns a deterministic generator for one purpose of this run.
func (c *runCtx) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(c.seed, stream))))
}

// mix derives a sub-seed (splitmix64 finalizer).
func mix(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e5d1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run: adhoc, dashboard or dashboard-ingest")
		seed     = flag.Uint64("seed", 1, "workload seed: query order, sampler seeds and inserted rows")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		outDir   = flag.String("out", ".bench_build/traces", "directory for span files of traced runs")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		writeExp = flag.String("write-expected", "", "verify exact answers against the reference evaluator at scale 1 and write their hashes to this file")
	)
	flag.Parse()
	if *manifest {
		out, err := manifestJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		os.Stdout.Write(out)
		return 0
	}
	if *writeExp != "" {
		if err := writeExpected(*writeExp); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var wl *workloadDef
	var names []string
	for _, w := range workloads() {
		w := w
		names = append(names, w.Name)
		if w.Name == *name {
			wl = &w
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	// Every run must end well inside the caller's time limit, even if
	// the engine hangs.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s, aborting")
		os.Exit(3)
	})
	defer watchdog.Stop()

	c := &runCtx{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		scale:   1,
		outDir:  *outDir,
		out:     os.Stdout,
	}
	res, err := execute(c, *wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and prints its metrics, ending with the
// result line.
func execute(c *runCtx, wl workloadDef) (*result, error) {
	start := time.Now()
	c.metrics = map[string]metricValue{}
	c.machine = currentMachine()
	if c.trace {
		c.tr = newTracer()
	}
	fmt.Fprintf(c.out, "perfbench workload=%s seed=%d seconds=%g trace=%v scale=%g\n", wl.Name, c.seed, c.seconds.Seconds(), c.trace, c.scale)
	fmt.Fprintf(c.out, "machine %s\n", c.machine)
	if err := wl.run(c); err != nil {
		return nil, err
	}
	want := endToEnd
	if c.trace {
		want = perLayer
	}
	res := &result{Attempted: c.attempted.Load(), Failed: c.failed.Load(), Metrics: map[string]metricValue{}}
	var missing []string
	for _, d := range want {
		v, ok := c.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = v
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if c.trace {
		for _, d := range perLayer {
			c.info("%s should move %s", d.Name, d.Moves)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	c.info("run took %.1fs", time.Since(start).Seconds())
	c.info("error_rate %.6g (%d failed of %d attempted)", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	out, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(c.out, string(out))
	return res, nil
}
