package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"quickr"
	"quickr/internal/data"
	"quickr/internal/exec"
	"quickr/internal/metrics"
	"quickr/internal/workload"
)

// engineCall is what a traced engine call recorded.
type engineCall struct {
	approx     bool
	planCached bool
	queued     float64 // seconds at the admission gate
	poolWait   float64 // seconds
	tasks      int
	stolen     int
}

// call times one engine query. With a tracer it records a root span
// carrying the Result's counters.
func call(tr *tracer, name, qid string, fn func() (*quickr.Result, error)) (*quickr.Result, time.Duration, error) {
	id := tr.begin(name, qid, -1)
	t := time.Now()
	res, err := fn()
	d := time.Since(t)
	if tr != nil {
		attrs := map[string]float64{}
		if res != nil {
			attrs = map[string]float64{
				"plan_cached":  b2f(res.PlanCached),
				"sampled":      b2f(res.Sampled),
				"queued_us":    res.QueuedSeconds * 1e6,
				"pool_wait_us": res.PoolWaitSeconds * 1e6,
				"pool_tasks":   float64(res.PoolTasks),
				"pool_stolen":  float64(res.PoolStolen),
				"exec_ms":      res.ExecSeconds * 1e3,
				"rows":         float64(res.RowsProcessed),
				"inflight_mb":  res.PeakInFlightBytes / (1 << 20),
			}
		}
		if err != nil {
			attrs["error"] = 1
		}
		tr.end(id, attrs)
	}
	return res, d, err
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// callsOf extracts the engine calls a tracer recorded.
func callsOf(tr *tracer) []engineCall {
	var out []engineCall
	for _, s := range tr.snapshot() {
		if s.Parent != -1 || s.Attrs == nil || (s.Name != "quickr.Exec" && s.Name != "quickr.ExecApprox") {
			continue
		}
		out = append(out, engineCall{
			approx:     s.Name == "quickr.ExecApprox",
			planCached: s.Attrs["plan_cached"] == 1,
			queued:     s.Attrs["queued_us"] / 1e6,
			poolWait:   s.Attrs["pool_wait_us"] / 1e6,
			tasks:      int(s.Attrs["pool_tasks"]),
			stolen:     int(s.Attrs["pool_stolen"]),
		})
	}
	return out
}

// replicaStats is what a replica pass measured.
type replicaStats struct {
	execExactNs, execApproxNs []float64
	rowsExact, rowsApprox     int64
	peakInflightMB            float64
	overheadUs                []float64
	simRuntime, simMH         []float64
	measuredGain              []float64
	plans                     []*plan
	matched, compared         int
	// self holds the self time of every span the pass recorded, by name.
	self map[string][]time.Duration
}

// replicaPass runs the replica beside the engine for rounds rounds over
// queries, in a seeded order. Each query runs exactly once (first
// round), then approximately through the replica and through
// Engine.ExecApprox, whose answer must match the replica's bit for bit.
// Rounds before warm only fill caches and are not counted.
func replicaPass(c *runCtx, eng *quickr.Engine, rep *replica, queries []workload.Query, rounds, warm int) *replicaStats {
	rs := &replicaStats{}
	first := len(rep.tr.snapshot())
	for round := 0; round < rounds; round++ {
		order := c.rng(5000 + uint64(round)).Perm(len(queries))
		for _, i := range order {
			q := queries[i]
			var ex *exec.Result
			var exRun time.Duration
			if round == 0 {
				var err error
				ex, _, err = rep.query(q.ID, q.SQL, false)
				c.op(err)
				if err != nil {
					continue
				}
				exRun = rep.last["exec.run"]
				rs.execExactNs = append(rs.execExactNs, float64(exRun))
				rs.rowsExact += ex.RowsProcessed
				rs.peakInflightMB = max(rs.peakInflightMB, ex.PeakInFlightBytes/(1<<20))
			}
			ap, p, err := rep.query(q.ID, q.SQL, true)
			c.op(err)
			if err != nil {
				continue
			}
			steps := rep.last
			res, wall, err := call(rep.tr, "quickr.ExecApprox", q.ID, func() (*quickr.Result, error) { return eng.ExecApprox(q.SQL) })
			c.op(err)
			if err != nil {
				continue
			}
			rs.compared++
			if exactHash(ap.Rows) != exactHash(res.InternalRows) {
				c.fail(fmt.Errorf("%s: replica approximate answer differs from Engine.ExecApprox", q.ID))
			} else {
				rs.matched++
			}
			if round == 0 {
				rs.plans = append(rs.plans, p)
				if ex != nil && p.sampled && ap.Metrics.Runtime > 0 && ap.Metrics.MachineHours > 0 && steps["exec.run"] > 0 {
					rs.simRuntime = append(rs.simRuntime, ex.Metrics.Runtime/ap.Metrics.Runtime)
					rs.simMH = append(rs.simMH, ex.Metrics.MachineHours/ap.Metrics.MachineHours)
					rs.measuredGain = append(rs.measuredGain, float64(exRun)/float64(steps["exec.run"]))
				}
			}
			if round < warm {
				continue
			}
			rs.execApproxNs = append(rs.execApproxNs, float64(steps["exec.run"]))
			rs.rowsApprox += ap.RowsProcessed
			rs.peakInflightMB = max(rs.peakInflightMB, ap.PeakInFlightBytes/(1<<20))
			// What the engine did beyond the replica's steps: plan-cache
			// lookup, history store and result build. Execution is taken
			// from the engine's own timer (plus the replica's measured
			// work around that timer), so run-to-run noise in execution
			// does not swamp the difference. On a plan-cache hit the engine
			// skipped the optimizer, so only the steps it ran count.
			aroundExec := steps["exec.run"] - time.Duration(ap.ExecSeconds*1e9)
			covered := steps["sql.parse"] + steps["pool.admission"] + time.Duration(res.ExecSeconds*1e9) + aroundExec
			if !res.PlanCached {
				covered += steps["catalog.bind"] + steps["opt.normalize"] + steps["core.asalqa"] + steps["accuracy.analyze"] + steps["opt.physical"]
			}
			rs.overheadUs = append(rs.overheadUs, float64(wall-covered)/1e3)
		}
	}
	spans := rep.tr.snapshot()
	self := selfTimes(spans)
	rs.self = map[string][]time.Duration{}
	for i := first; i < len(spans); i++ {
		rs.self[spans[i].Name] = append(rs.self[spans[i].Name], self[i])
	}
	return rs
}

// reportLayers computes the per-layer metrics from a replica pass and
// the traced engine calls of the timed loop.
func reportLayers(c *runCtx, calls []engineCall, cache sampleCacheCounters, rs *replicaStats, rt runtimeWindow, queries int) {
	byName := rs.self
	c.info("replica answers bit-identical to Engine.ExecApprox: %d of %d", rs.matched, rs.compared)
	for _, n := range []string{"sql.parse", "catalog.bind", "opt.normalize", "core.asalqa", "accuracy.analyze", "opt.physical"} {
		c.set(n+"_us", meanMicros(byName[n]), fmt.Sprintf("mean self time, n=%d", len(byName[n])))
	}
	c.set("pool.admission_wait_us", meanMicros(byName["pool.admission"]), fmt.Sprintf("n=%d", len(byName["pool.admission"])))
	c.info("replica glue self time (replica.approx) %.4g us", meanMicros(byName["replica.approx"]))
	c.set("exec.exact_run_ms", mean(rs.execExactNs)/1e6, fmt.Sprintf("n=%d", len(rs.execExactNs)))
	c.set("exec.approx_run_ms", mean(rs.execApproxNs)/1e6, fmt.Sprintf("n=%d", len(rs.execApproxNs)))
	var ns float64
	for _, x := range append(append([]float64(nil), rs.execExactNs...), rs.execApproxNs...) {
		ns += x
	}
	if rows := rs.rowsExact + rs.rowsApprox; rows > 0 {
		c.set("exec.ns_per_input_row", ns/float64(rows), fmt.Sprintf("%d rows", rows))
	}
	c.set("exec.peak_inflight_mb", rs.peakInflightMB, "max over replica runs")
	c.set("quickr.overhead_us", mean(rs.overheadUs), fmt.Sprintf("Engine.ExecApprox wall minus replica spans, n=%d", len(rs.overheadUs)))

	var approx, hits, tasks, stolen int
	var wait, queued []float64
	for _, cl := range calls {
		queued = append(queued, cl.queued*1e6)
		if cl.approx {
			approx++
			if cl.planCached {
				hits++
			}
		}
		wait = append(wait, cl.poolWait*1e6)
		tasks += cl.tasks
		stolen += cl.stolen
	}
	c.set("quickr.plancache_hit_rate", frac(hits, approx), fmt.Sprintf("%d of %d approximate calls", hits, approx))
	c.set("pool.task_wait_us", mean(wait), fmt.Sprintf("n=%d", len(wait)))
	c.info("admission queueing of the engine's calls under the workload's load: mean %.4g us (n=%d)", mean(queued), len(queued))
	c.set("pool.stolen_frac", frac(stolen, tasks), fmt.Sprintf("%d of %d tasks", stolen, tasks))
	lookups := cache.hits + cache.misses
	c.set("exec.samplecache_hit_rate", frac(int(cache.hits), int(lookups)), fmt.Sprintf("%d of %d lookups", cache.hits, lookups))

	c.set("cluster.sim_runtime_gain", median(rs.simRuntime), fmt.Sprintf("median over %d sampled queries", len(rs.simRuntime)))
	c.set("cluster.sim_machine_hours_gain", median(rs.simMH), fmt.Sprintf("median over %d sampled queries", len(rs.simMH)))
	c.set("cluster.sim_vs_measured_spearman", spearman(rs.simRuntime, rs.measuredGain), "simulated runtime gain vs measured exact/approx exec time")

	if queries > 0 {
		c.set("runtime.alloc_mb_per_query", rt.AllocBytes/float64(queries)/(1<<20), fmt.Sprintf("%d queries", queries))
	}
	c.set("runtime.gc_cpu_frac", rt.GCCPUFrac, "")
	c.set("runtime.gc_pause_p99_us", rt.GCPauseP99s*1e6, fmt.Sprintf("histogram bucket edge, %d pauses", rt.GCPauses))
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sampleCacheCounters are the sample cache's counters.
type sampleCacheCounters struct{ hits, misses, evictions int64 }

func readSampleCache() sampleCacheCounters {
	g := metrics.Gauges()
	return sampleCacheCounters{g.SampleCacheHits, g.SampleCacheMisses, g.SampleCacheEvictions}
}

// window snapshots the Go runtime and sample-cache counters at the start
// of a timed loop; close returns what changed since.
type window struct {
	rt    rtSnapshot
	cache sampleCacheCounters
}

func openWindow() window { return window{readRuntime(), readSampleCache()} }

func (w window) close() (runtimeWindow, sampleCacheCounters) {
	c := readSampleCache()
	return diffRuntime(w.rt, readRuntime()), sampleCacheCounters{c.hits - w.cache.hits, c.misses - w.cache.misses, c.evictions - w.cache.evictions}
}

// reportOverhead prints how much slower the traced loop ran per query.
func reportOverhead(c *runCtx, plainMs, tracedMs float64) {
	if plainMs > 0 {
		c.info("tracing overhead %.3g%% (mean per-query wall %.4g ms traced vs %.4g ms untraced)",
			(tracedMs/plainMs-1)*100, tracedMs, plainMs)
	}
}

// weblogRows generates n weblog rows from the run's seed.
func weblogRows(c *runCtx, n int, stream uint64) [][]any {
	t := data.Logs(n, int64(mix(c.seed, stream)>>1), 1)
	rows := t.AllRows()
	out := make([][]any, len(rows))
	for i, r := range rows {
		vals := make([]any, len(r))
		for j, v := range r {
			vals[j] = v
		}
		out[i] = vals
	}
	return out
}

// insertHarness times Engine.Insert of seed-generated weblog batches,
// after the run's checks (it changes the data).
func insertHarness(c *runCtx, eng *quickr.Engine) error {
	const batches, size = 4, 500
	var per []float64
	for b := 0; b < batches; b++ {
		rows := weblogRows(c, size, 9000+uint64(b))
		t := time.Now()
		err := eng.Insert("weblogs", rows)
		d := time.Since(t)
		c.op(err)
		if err != nil {
			return err
		}
		per = append(per, float64(d)/1e3/float64(len(rows)))
	}
	c.set("table.insert_us_per_row", median(per), fmt.Sprintf("median of %d Engine.Insert batches of %d rows", batches, size))
	return nil
}

// finishTrace writes the run's spans.
func finishTrace(c *runCtx, workload string) error {
	header := map[string]any{
		"workload": workload,
		"seed":     c.seed,
		"machine":  c.machine,
	}
	path, err := writeTrace(c.outDir, fmt.Sprintf("%s-seed%d.json", workload, c.seed), header, c.tr.snapshot())
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	c.info("spans written to %s", path)
	return nil
}

func reportRSS(c *runCtx) error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	c.set("peak_rss_mb", mb, "VmHWM")
	return nil
}

// freeMemory returns the previous set-up's memory before the next one,
// so repeated set-ups do not stack up in the peak RSS.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
