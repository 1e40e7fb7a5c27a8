package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"quickr"
	"quickr/internal/experiments"
	"quickr/internal/lplan"
	"quickr/internal/workload"
)

// suiteQueries is the ad-hoc suite: every TPC-DS-like, TPC-H-like and
// log query the engine ships.
func suiteQueries() []workload.Query {
	var qs []workload.Query
	qs = append(qs, workload.TPCDSQueries()...)
	qs = append(qs, workload.TPCHQueries()...)
	qs = append(qs, workload.OtherQueries()...)
	return qs
}

// setupTimes collects the set-up phases of every repetition.
type setupTimes struct {
	total, gen, stats, warm []float64
}

func (s *setupTimes) report(c *runCtx) {
	c.set("setup_s", median(s.total), fmt.Sprintf("median of %d set-ups", len(s.total)))
	c.set("data.generate_s", median(s.gen), "")
	c.set("stats.collect_s", median(s.stats), "")
	c.set("quickr.warmup_s", median(s.warm), "")
}

// collectStats runs the engine's first-touch statistics collection on
// every loaded table, which queries would otherwise pay lazily.
func collectStats(eng *quickr.Engine) error {
	cat := eng.Catalog()
	for _, name := range cat.Tables() {
		t, err := cat.Table(name)
		if err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		cat.Stats.Get(t)
	}
	return nil
}

// setupAdhoc builds the ad-hoc engine: data at the run's scale,
// statistics, and one optimization of every query in both modes (which
// settles the optimizer's lazily computed column-set statistics).
func setupAdhoc(c *runCtx, st *setupTimes, queries []workload.Query) (*quickr.Engine, error) {
	t0 := time.Now()
	env := experiments.NewFullEnv(c.scale)
	t1 := time.Now()
	if err := collectStats(env.Eng); err != nil {
		return nil, err
	}
	t2 := time.Now()
	for _, q := range queries {
		for _, approx := range []bool{false, true} {
			if _, err := env.Eng.Plan(q.SQL, approx); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", q.ID, err)
			}
		}
	}
	t3 := time.Now()
	st.gen = append(st.gen, t1.Sub(t0).Seconds())
	st.stats = append(st.stats, t2.Sub(t1).Seconds())
	st.warm = append(st.warm, t3.Sub(t2).Seconds())
	st.total = append(st.total, t3.Sub(t0).Seconds())
	return env.Eng, nil
}

// queryLog is the per-query record of the timed loop.
type queryLog struct {
	exactMs, approxMs []float64
	samplers          string
	sampled           bool
	simGain           float64
}

// adhocLoop is what one timed adhoc loop measured.
type adhocLoop struct {
	exactMs, approxMs []float64
	exactS, approxS   float64
	// exactCPU and approxCPU are the process CPU seconds the calls
	// used, pool workers and garbage collection included.
	exactCPU, approxCPU float64
	acc                 accuracyTally
	perQuery            map[string]*queryLog
	rt                  runtimeWindow
	cache               sampleCacheCounters
	calls               []engineCall
}

// runAdhocLoop runs whole passes until d has elapsed (and at least
// minPasses). Each pass re-seeds the engine, which also empties the plan
// cache, then runs every query in a seeded order, exactly and then
// approximately, as one analyst waiting for each answer would.
func runAdhocLoop(c *runCtx, eng *quickr.Engine, queries []workload.Query, kinds map[string][]lplan.AggKind,
	expected map[string]string, d time.Duration, minPasses int, firstPass uint64, tr *tracer) *adhocLoop {
	out := &adhocLoop{perQuery: map[string]*queryLog{}}
	for _, q := range queries {
		out.perQuery[q.ID] = &queryLog{}
	}
	win := openWindow()
	start := time.Now()
	for pass := firstPass; pass < firstPass+uint64(minPasses) || time.Since(start) < d; pass++ {
		eng.SetSeed(mix(c.seed, pass))
		order := c.rng(1000 + pass).Perm(len(queries))
		for _, i := range order {
			q := queries[i]
			ql := out.perQuery[q.ID]
			cpu0 := cpuSeconds()
			ex, dex, err := call(tr, "quickr.Exec", q.ID, func() (*quickr.Result, error) { return eng.Exec(q.SQL) })
			out.exactCPU += cpuSeconds() - cpu0
			c.op(err)
			if err != nil {
				continue
			}
			ms := float64(dex) / 1e6
			out.exactMs = append(out.exactMs, ms)
			out.exactS += dex.Seconds()
			ql.exactMs = append(ql.exactMs, ms)
			exHash := canonicalHash(ex.InternalRows)
			if want, ok := expected[q.ID]; ok && want != exHash {
				c.fail(fmt.Errorf("%s: exact answer hash %s, reference %s", q.ID, exHash[:12], want[:12]))
			}

			cpu0 = cpuSeconds()
			ap, dap, err := call(tr, "quickr.ExecApprox", q.ID, func() (*quickr.Result, error) { return eng.ExecApprox(q.SQL) })
			out.approxCPU += cpuSeconds() - cpu0
			c.op(err)
			if err != nil {
				continue
			}
			ms = float64(dap) / 1e6
			out.approxMs = append(out.approxMs, ms)
			out.approxS += dap.Seconds()
			ql.approxMs = append(ql.approxMs, ms)
			if ap.Sampled {
				out.acc.add(ex.Estimates, ap.Estimates, kinds[q.ID])
			} else if h := canonicalHash(ap.InternalRows); h != exHash {
				c.fail(fmt.Errorf("%s: unsampled approximate answer differs from the exact one", q.ID))
			}
			if ql.samplers == "" {
				ql.sampled = ap.Sampled
				ql.samplers = samplerTypes(ap)
				if ap.Metrics.Runtime > 0 {
					ql.simGain = ex.Metrics.Runtime / ap.Metrics.Runtime
				}
			}
		}
	}
	out.rt, out.cache = win.close()
	out.calls = callsOf(tr)
	return out
}

func samplerTypes(r *quickr.Result) string {
	if !r.Sampled {
		return "-"
	}
	var ts []string
	for _, s := range r.Samplers {
		ts = append(ts, s.Type)
	}
	return strings.Join(ts, "+")
}

// aggKinds finds each query's top aggregate kinds from its exact plan.
func aggKinds(eng *quickr.Engine, queries []workload.Query) (map[string][]lplan.AggKind, error) {
	rep := newReplica(eng, 0, 0, nil)
	out := map[string][]lplan.AggKind{}
	for _, q := range queries {
		p, err := rep.prepare(q.ID, q.SQL, false, -1)
		if err != nil {
			return nil, err
		}
		out[q.ID] = topAggKinds(p.physical)
	}
	return out, nil
}

func runAdhoc(c *runCtx) error {
	queries := suiteQueries()
	var st setupTimes
	var eng *quickr.Engine
	for i := 0; i < c.setupReps(); i++ {
		eng = nil
		freeMemory()
		var err error
		if eng, err = setupAdhoc(c, &st, queries); err != nil {
			return err
		}
	}
	kinds, err := aggKinds(eng, queries)
	if err != nil {
		return err
	}
	expected := map[string]string{}
	if c.scale == 1 {
		if expected, err = loadExpected(); err != nil {
			return err
		}
	} else {
		c.info("exact answers not checked against reference hashes: they are recorded for scale 1 only")
	}

	minPasses := 1
	if c.scale == 1 {
		// Four passes of 62 queries leave the p95 ten samples above it,
		// and GC cycles landing in the slowest queries moved that tail by
		// a fifth between runs of one seed; six passes leave 18 and kept
		// the spread under a tenth.
		minPasses = 6
	}
	var loop *adhocLoop
	if !c.trace {
		loop = runAdhocLoop(c, eng, queries, kinds, expected, c.seconds, minPasses, 0, nil)
	} else {
		half := c.seconds / 2
		plain := runAdhocLoop(c, eng, queries, kinds, expected, half, 1, 0, nil)
		loop = runAdhocLoop(c, eng, queries, kinds, expected, half, 1, 100, c.tr)
		reportOverhead(c, mean(plain.approxMs)+mean(plain.exactMs), mean(loop.approxMs)+mean(loop.exactMs))
	}
	st.report(c)
	reportAdhoc(c, loop, queries)

	if c.trace {
		eng.SetSeed(mix(c.seed, 999))
		rep := newReplica(eng, mix(c.seed, 999), 0, c.tr)
		rs := replicaPass(c, eng, rep, queries, 1, 0)
		reportLayers(c, loop.calls, loop.cache, rs, loop.rt, len(loop.exactMs)+len(loop.approxMs))
		if err := samplerHarness(c, eng, queries, rs.plans); err != nil {
			return err
		}
		if err := insertHarness(c, eng); err != nil {
			return err
		}
		return finishTrace(c, "adhoc")
	}
	return reportRSS(c)
}

// reportAdhoc prints the end-to-end metrics and the per-query table.
func reportAdhoc(c *runCtx, l *adhocLoop, queries []workload.Query) {
	p50, _, _ := percentile(l.exactMs, 0.5)
	c.set("exact_qps", float64(len(l.exactMs))/l.exactS, fmt.Sprintf("n=%d", len(l.exactMs)))
	c.set("exact_latency_p50_ms", p50, fmt.Sprintf("n=%d", len(l.exactMs)))
	c.set("exact_cpu_ms_per_query", l.exactCPU*1e3/float64(len(l.exactMs)), "process CPU time per call")
	if p95, beyond, ok := percentile(l.exactMs, 0.95); ok {
		c.info("exact_latency_p95_ms %.6g ms (n=%d, %d beyond)", p95, len(l.exactMs), beyond)
	} else {
		c.info("exact_latency_p95_ms not measured: %d samples leave %d beyond", len(l.exactMs), beyond)
	}
	a50, _, _ := percentile(l.approxMs, 0.5)
	c.set("approx_qps", float64(len(l.approxMs))/l.approxS, fmt.Sprintf("n=%d", len(l.approxMs)))
	c.set("approx_latency_p50_ms", a50, fmt.Sprintf("n=%d", len(l.approxMs)))
	c.set("approx_cpu_ms_per_query", l.approxCPU*1e3/float64(len(l.approxMs)), "process CPU time per call")
	tail, beyond, ok := percentile(l.approxMs, 0.95)
	note := fmt.Sprintf("p95, n=%d, %d beyond", len(l.approxMs), beyond)
	if !ok {
		note += ", FEWER THAN 10 BEYOND"
	}
	c.set("approx_latency_tail_ms", tail, note)
	c.set("ci95_coverage", l.acc.Coverage(), fmt.Sprintf("%d of %d estimates", l.acc.Covered, l.acc.Estimates))
	c.set("group_recall", l.acc.Recall(), fmt.Sprintf("missed_groups=%.6g: %d of %d groups", l.acc.MissedFrac(), l.acc.Missed, l.acc.Groups))
	c.info("approx_qps/exact_qps %.3g (for reading only: a faster exact path would lower it)",
		(float64(len(l.approxMs))/l.approxS)/(float64(len(l.exactMs))/l.exactS))

	fmt.Fprintln(c.out, "per-query (median wall ms over passes; sim = simulated runtime gain):")
	fmt.Fprintf(c.out, "  %-5s %10s %10s %7s  %-26s %s\n", "query", "exact", "approx", "sim", "samplers", "")
	ids := make([]string, 0, len(queries))
	for _, q := range queries {
		ids = append(ids, q.ID)
	}
	sort.Strings(ids)
	slower := 0
	for _, id := range ids {
		ql := l.perQuery[id]
		ex, ap := median(ql.exactMs), median(ql.approxMs)
		flag := ""
		if ql.sampled && ap > ex {
			flag = "SLOWER APPROXIMATED"
			slower++
		}
		fmt.Fprintf(c.out, "  %-5s %10.3f %10.3f %7.3g  %-26s %s\n", id, ex, ap, ql.simGain, ql.samplers, flag)
	}
	c.info("sampled queries measured slower approximated than exact: %d", slower)
}
