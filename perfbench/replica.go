package main

import (
	"context"
	"fmt"
	"time"

	"quickr"
	"quickr/internal/accuracy"
	"quickr/internal/catalog"
	"quickr/internal/cluster"
	"quickr/internal/core"
	"quickr/internal/exec"
	"quickr/internal/lplan"
	"quickr/internal/opt"
	"quickr/internal/pool"
	"quickr/internal/sql"
)

// replica repeats the engine's prepare-and-run path (Engine.prepareStmt
// and Engine.runStmt) one public call at a time, so each layer can be
// timed from outside the program. It must make exactly the calls the
// engine makes with the engine's settings: its approximate answers are
// checked bit for bit against Engine.ExecApprox.
type replica struct {
	cat  *catalog.Catalog
	cfg  cluster.Config
	opts core.Options
	seed uint64
	// sampleCache mirrors Engine.SetSampleCache: the planner wraps
	// cacheable fragments and runs resolve them against sc.
	sampleCache bool
	sc          *exec.SampleCache
	gate        *pool.Gate
	tr          *tracer
	// last holds the step durations of the most recent query.
	last map[string]time.Duration
}

func newReplica(eng *quickr.Engine, seed uint64, sampleCacheBytes int64, tr *tracer) *replica {
	r := &replica{
		cat:  eng.Catalog(),
		cfg:  cluster.DefaultConfig(),
		opts: eng.Options(),
		seed: seed,
		gate: pool.NewGate(quickr.DefaultMemoryBudget),
		tr:   tr,
	}
	if sampleCacheBytes > 0 {
		r.sampleCache = true
		r.sc = exec.NewSampleCache(sampleCacheBytes)
	}
	return r
}

// plan is one prepared statement.
type plan struct {
	physical exec.PNode
	ests     map[exec.PNode]float64
	sampled  bool
}

// step times fn as a child span of parent.
func (r *replica) step(name, qid string, parent int, fn func() error) error {
	id := r.tr.begin(name, qid, parent)
	t := time.Now()
	err := fn()
	if r.last != nil {
		r.last[name] += time.Since(t)
	}
	r.tr.end(id, nil)
	if err != nil {
		return fmt.Errorf("%s: %s: %w", qid, name, err)
	}
	return nil
}

// prepare parses, binds and optimizes a statement as Engine.prepareStmt
// does (plan checks and pruning are off by default and stay off).
func (r *replica) prepare(qid, text string, approx bool, parent int) (*plan, error) {
	var stmt *sql.SelectStmt
	var logical lplan.Node
	var est *opt.Estimator
	var cm *opt.CostModel
	p := &plan{}
	var estCfg *exec.EstimatorConfig
	var res *core.Result
	var an *accuracy.Analysis
	if err := r.step("sql.parse", qid, parent, func() (err error) {
		stmt, err = sql.Parse(text)
		return err
	}); err != nil {
		return nil, err
	}
	if stmt.Contract != nil {
		return nil, fmt.Errorf("%s: contract queries are not replicated", qid)
	}
	if err := r.step("catalog.bind", qid, parent, func() (err error) {
		logical, err = catalog.NewBinder(r.cat).Bind(stmt)
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.step("opt.normalize", qid, parent, func() error {
		est = opt.NewEstimator(r.cat)
		cm = opt.NewCostModel(est, r.cfg)
		logical = opt.Normalize(logical, est)
		return nil
	}); err != nil {
		return nil, err
	}
	if approx {
		if err := r.step("core.asalqa", qid, parent, func() (err error) {
			res, err = core.New(est, cm, r.opts).Place(logical)
			return err
		}); err != nil {
			return nil, err
		}
		logical = res.Plan
		p.sampled = res.Sampled
		if res.Sampled {
			if err := r.step("accuracy.analyze", qid, parent, func() error {
				an = accuracy.Analyze(res.Plan)
				return nil
			}); err != nil {
				return nil, err
			}
			estCfg = &exec.EstimatorConfig{Type: an.Type, P: an.P, UniverseCols: an.UniverseCols}
		}
	}
	if err := r.step("opt.physical", qid, parent, func() (err error) {
		if an != nil && an.Type == lplan.SamplerUniverse && len(an.UniverseCols) > 0 {
			logical = opt.RetainColumns(logical, an.UniverseCols)
		}
		pl := &opt.Planner{CM: cm, EstCfg: estCfg, Seed: r.seed, SampleCache: r.sampleCache}
		p.physical, err = pl.Plan(logical)
		p.ests = pl.Ests
		return err
	}); err != nil {
		return nil, err
	}
	return p, nil
}

// run admits and executes a prepared plan as Engine.runStmt does.
func (r *replica) run(qid string, p *plan, parent int) (*exec.Result, error) {
	ctx := context.Background()
	var adm pool.Admission
	bytes := exec.EstimateAdmissionBytes(p.physical, p.ests)
	if err := r.step("pool.admission", qid, parent, func() (err error) {
		adm, err = r.gate.Acquire(ctx, bytes)
		return err
	}); err != nil {
		return nil, err
	}
	defer r.gate.Release(adm)
	var res *exec.Result
	err := r.step("exec.run", qid, parent, func() (err error) {
		res, err = exec.RunWithOptions(ctx, p.physical, r.cfg, p.ests, exec.Options{
			QueuedNanos:   adm.QueuedNanos,
			AdmittedBytes: adm.Bytes,
			SampleCache:   r.sc,
		})
		return err
	})
	return res, err
}

// query prepares and runs one statement under a root span named
// "replica.exact" or "replica.approx".
func (r *replica) query(qid, text string, approx bool) (*exec.Result, *plan, error) {
	name := "replica.exact"
	if approx {
		name = "replica.approx"
	}
	r.last = map[string]time.Duration{}
	root := r.tr.begin(name, qid, -1)
	p, err := r.prepare(qid, text, approx, root)
	var res *exec.Result
	if err == nil {
		res, err = r.run(qid, p, root)
	}
	r.tr.end(root, nil)
	return res, p, err
}

// topAggKinds returns the aggregate kinds of a plan's top hash
// aggregate, in output order (nil when the plan has none).
func topAggKinds(root exec.PNode) []lplan.AggKind {
	var kinds []lplan.AggKind
	found := false
	exec.WalkP(root, func(n exec.PNode) {
		if a, ok := n.(*exec.PHashAgg); ok && a.Top && !found {
			found = true
			for _, s := range a.Aggs {
				kinds = append(kinds, s.Kind)
			}
		}
	})
	return kinds
}
