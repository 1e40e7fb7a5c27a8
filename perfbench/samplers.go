package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"quickr"
	"quickr/internal/catalog"
	"quickr/internal/exec"
	"quickr/internal/experiments"
	"quickr/internal/lplan"
	"quickr/internal/sampler"
	"quickr/internal/table"
	"quickr/internal/workload"
)

// samplerSpec is one sampler ASALQA placed, resolved to a stored table
// and that table's column positions so the harness can feed it rows.
type samplerSpec struct {
	typ   lplan.SamplerType
	p     float64
	delta int
	cols  []int
	seed  uint64
	tbl   *table.Table
}

func (s samplerSpec) key() string {
	return fmt.Sprintf("%v|%g|%d|%v|%s", s.typ, s.p, s.delta, s.cols, s.tbl.Name)
}

// specsOf extracts the samplers of a physical plan, each resolved to
// the stored table its rows come from: for a uniform sampler the largest
// table scanned beneath it, for universe and distinct samplers the table
// their columns originate in. Samplers stratified on computed buckets,
// or whose columns span tables, have no single table to replay and are
// skipped.
func specsOf(root exec.PNode, cat *catalog.Catalog) []samplerSpec {
	var out []samplerSpec
	exec.WalkP(root, func(n exec.PNode) {
		s, ok := n.(*exec.PSample)
		if !ok || s.Def.Type == lplan.SamplerPassThrough || len(s.Def.BucketCols) > 0 {
			return
		}
		spec := samplerSpec{typ: s.Def.Type, p: s.Def.P, delta: s.Def.Delta, seed: s.Seed}
		if s.Def.Type == lplan.SamplerUniverse {
			spec.seed = s.Def.Seed
		}
		if s.Def.Type == lplan.SamplerUniform {
			exec.WalkP(s.In, func(k exec.PNode) {
				if sc, ok := k.(*exec.PScan); ok && (spec.tbl == nil || sc.Tbl.NumRows() > spec.tbl.NumRows()) {
					spec.tbl = sc.Tbl
				}
			})
			if spec.tbl != nil {
				out = append(out, spec)
			}
			return
		}
		in := s.In.Cols()
		for _, id := range s.Def.Cols {
			var origin *lplan.BaseCol
			for _, ci := range in {
				if ci.ID == id && len(ci.Origins) == 1 {
					origin = &ci.Origins[0]
				}
			}
			if origin == nil {
				return
			}
			t, err := cat.Table(origin.Table)
			if err != nil || (spec.tbl != nil && spec.tbl != t) {
				return
			}
			spec.tbl = t
			idx := t.Schema.Index(origin.Column)
			if idx < 0 {
				return
			}
			spec.cols = append(spec.cols, idx)
		}
		if spec.tbl != nil {
			out = append(out, spec)
		}
	})
	return out
}

// harnessRun is one pass of one sampler over its table.
type harnessRun struct {
	rows, passed int
	ns           float64
	allocs       float64
}

func runSampler(s samplerSpec, rows []table.Row) harnessRun {
	var passed int
	before := readRuntime()
	t := time.Now()
	switch s.typ {
	case lplan.SamplerUniform:
		u := sampler.NewUniform(s.p, s.seed)
		for _, r := range rows {
			if ok, _ := u.Admit(r, 1); ok {
				passed++
			}
		}
	case lplan.SamplerUniverse:
		u := sampler.NewUniverse(s.p, s.cols, s.seed)
		for _, r := range rows {
			if ok, _ := u.Admit(r, 1); ok {
				passed++
			}
		}
	case lplan.SamplerDistinct:
		d := sampler.NewDistinct(s.p, s.cols, s.delta, s.seed)
		for _, r := range rows {
			if ok, _ := d.Admit(r, 1); ok {
				passed++
			}
		}
		passed += len(d.Flush())
	}
	ns := float64(time.Since(t))
	after := readRuntime()
	return harnessRun{rows: len(rows), passed: passed, ns: ns, allocs: after.u64(4) - before.u64(4)}
}

// runBatch times the batch entry points over every row as one selection
// (the distinct sampler has none).
func runBatch(s samplerSpec, rows []table.Row) (float64, bool) {
	sel := make([]int32, len(rows))
	w := make([]float64, len(rows))
	for i := range sel {
		sel[i] = int32(i)
		w[i] = 1
	}
	t := time.Now()
	switch s.typ {
	case lplan.SamplerUniform:
		sampler.NewUniform(s.p, s.seed).AdmitBatch(sel, w)
	case lplan.SamplerUniverse:
		vals := make([]table.Value, len(s.cols))
		sampler.NewUniverse(s.p, s.cols, s.seed).AdmitBatch(sel, w, func(lane int32) uint64 {
			for i, c := range s.cols {
				vals[i] = rows[lane][c]
			}
			return sampler.HashValues(vals, s.seed)
		})
	default:
		return 0, false
	}
	return float64(time.Since(t)), true
}

// samplerHarness replays the samplers ASALQA chose for the ad-hoc suite
// over the rows of the tables they read, with the chosen p, δ and
// columns. plans are the suite's approximate plans when the caller has
// them; otherwise (eng nil) an ad-hoc engine is built and planned here.
func samplerHarness(c *runCtx, eng *quickr.Engine, queries []workload.Query, plans []*plan) error {
	if eng == nil {
		env := experiments.NewFullEnv(c.scale)
		eng = env.Eng
		if err := collectStats(eng); err != nil {
			return err
		}
	}
	if plans == nil {
		rep := newReplica(eng, c.seed, 0, nil)
		for _, q := range queries {
			p, err := rep.prepare(q.ID, q.SQL, true, -1)
			c.op(err)
			if err != nil {
				continue
			}
			plans = append(plans, p)
		}
	}
	seen := map[string]bool{}
	var specs []samplerSpec
	for _, p := range plans {
		for _, s := range specsOf(p.physical, eng.Catalog()) {
			if !seen[s.key()] {
				seen[s.key()] = true
				specs = append(specs, s)
			}
		}
	}
	sort.Slice(specs, func(a, b int) bool { return specs[a].key() < specs[b].key() })

	const reps = 3
	type agg struct {
		ns, batchNs  []float64 // summed over specs, per rep
		allocs       float64
		rows, passed int
		expected     float64
		specs        int
	}
	byType := map[lplan.SamplerType]*agg{}
	for _, s := range specs {
		a := byType[s.typ]
		if a == nil {
			a = &agg{ns: make([]float64, reps), batchNs: make([]float64, reps)}
			byType[s.typ] = a
		}
		a.specs++
		rows := s.tbl.AllRows()
		for r := 0; r < reps; r++ {
			h := runSampler(s, rows)
			a.ns[r] += h.ns
			if bn, ok := runBatch(s, rows); ok {
				a.batchNs[r] += bn
			}
			if r == 0 {
				a.rows += h.rows
				a.passed += h.passed
				a.allocs += h.allocs
				a.expected += float64(h.rows) * s.p
			}
		}
	}
	var names []string
	for _, s := range specs {
		names = append(names, fmt.Sprintf("%v(p=%.3g,cols=%v)@%s", s.typ, s.p, s.cols, s.tbl.Name))
	}
	c.info("sampler harness specs: %s", strings.Join(names, " "))
	var passed, expected float64
	for _, tm := range []struct {
		typ    lplan.SamplerType
		metric string
	}{
		{lplan.SamplerUniform, "sampler.uniform_ns_per_row"},
		{lplan.SamplerUniverse, "sampler.universe_ns_per_row"},
		{lplan.SamplerDistinct, "sampler.distinct_ns_per_row"},
	} {
		typ, metric := tm.typ, tm.metric
		a := byType[typ]
		if a == nil || a.rows == 0 {
			c.info("%s absent: ASALQA chose no %v sampler over a base table on the ad-hoc suite", metric, typ)
			continue
		}
		perRow := make([]float64, reps)
		batch := make([]float64, reps)
		for r := range perRow {
			perRow[r] = a.ns[r] / float64(a.rows)
			batch[r] = a.batchNs[r] / float64(a.rows)
		}
		c.set(metric, median(perRow), fmt.Sprintf("Admit, median of %d passes over %d rows from %d samplers", reps, a.rows, a.specs))
		if typ != lplan.SamplerDistinct {
			c.info("%s AdmitBatch %.4g ns/row", metric, median(batch))
			passed += float64(a.passed)
			expected += a.expected
		} else {
			c.set("sampler.distinct_allocs_per_row", a.allocs/float64(a.rows), "")
		}
	}
	if expected > 0 {
		c.set("sampler.pass_rate_ratio", passed/expected, "uniform and universe samplers: passed ÷ seen ÷ p")
	}
	return nil
}
