package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"hybridpde/internal/analog"
	"hybridpde/internal/core"
	"hybridpde/internal/la"
	"hybridpde/internal/nonlin"
	"hybridpde/internal/pde"
	"hybridpde/internal/problem"
	"hybridpde/perfbench/check"
)

// The replay solves a sample of a workload's inputs in this process,
// through the same public entry points the service calls (core.Ladder.Solve
// and core.TimeLoop), with timing decorators around the problem and the
// analog seeder. Instances are drawn by the benchmark itself: the fields
// come from the request seed, and steady problems get a planted root the
// solve must recover.

// rootBound is how close (max norm) a steady replay must land to its
// planted root. Newton stops at ‖F‖₂ ≤ 1e-12 and the steady Burgers
// Jacobian's inverse is O(1), so the true error is orders below this.
const rootBound = 1e-9

// trajectoryTol bounds the per-step max-norm gap between a chord-Newton and
// a classical-Newton trajectory: both converge every step to ‖F‖₂ ≤ 1e-12.
const trajectoryTol = 1e-9

// span is one timed interval of the traced run.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	RID    string `json:"rid"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// replaySystem is what the service's grid problems implement and what the
// decorator forwards.
type replaySystem interface {
	problem.SparseSystem
	problem.WarmStarter
	problem.DegreeReporter
	problem.Decomposable
	nonlin.PoolAware
}

// timed counts and times Eval and JacobianCSR calls of a system; every
// other method (SetPool, InitialGuessInto, Tiles, ...) is forwarded by
// embedding, so solves through it take the same path and produce the same
// bits as undecorated ones.
type timed struct {
	replaySystem
	mu             sync.Mutex
	evalN, jacN    int
	evalNS, jacNS  int64
	spans          []span
	parent, rid    string
	recordSubspans bool
}

func (t *timed) note(name string, start int64, n *int, ns *int64) {
	end := nowNS()
	t.mu.Lock()
	*n++
	*ns += end - start
	if t.recordSubspans {
		t.spans = append(t.spans, span{ID: t.parent + "/" + name + strconv.Itoa(*n), Name: name, Parent: t.parent, RID: t.rid, Start: start, End: end})
	}
	t.mu.Unlock()
}

func (t *timed) Eval(u, f []float64) error {
	start := nowNS()
	err := t.replaySystem.Eval(u, f)
	t.note("pde.eval", start, &t.evalN, &t.evalNS)
	return err
}

func (t *timed) JacobianCSR(u []float64) (*la.CSR, error) {
	start := nowNS()
	j, err := t.replaySystem.JacobianCSR(u)
	t.note("pde.jacobian", start, &t.jacN, &t.jacNS)
	return j, err
}

// pdeNS is the decorator's total Eval plus Jacobian time.
func (t *timed) pdeNS() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evalNS + t.jacNS
}

// timedTransient adds the time-loop hook.
type timedTransient struct {
	*timed
	b *pde.Burgers
}

func (t timedTransient) Advance(w []float64) error { return t.b.Advance(w) }

// timedSeeder times each call of a core.Seeder.
type timedSeeder struct {
	inner core.Seeder
	ns    []int64
}

func (s *timedSeeder) Seed(ctx context.Context, sys problem.SparseSystem, seed []float64, opts *core.Options, rep *core.Report) error {
	start := nowNS()
	err := s.inner.Seed(ctx, sys, seed, opts, rep)
	s.ns = append(s.ns, nowNS()-start)
	return err
}

// draw fills dst uniformly from ±bound.
func draw(rng *rand.Rand, dst []float64, bound float64) {
	for i := range dst {
		dst[i] = bound * (2*rng.Float64() - 1)
	}
}

const replayBound = 0.5 // the service's default field range

// steadyCase is a burgers-steady instance with its planted root and its
// perturbed start.
type steadyCase struct {
	sys      *pde.BurgersSteady
	root, u0 []float64
}

func newSteadyCase(n, order int, re float64, seed int64) (*steadyCase, error) {
	b, err := pde.NewBurgers(n, re)
	if err != nil {
		return nil, err
	}
	b.Order = order
	s := pde.NewBurgersSteady(b)
	rng := rand.New(rand.NewSource(seed))
	draw(rng, b.UPrev, replayBound)
	draw(rng, b.VPrev, replayBound)
	c := &steadyCase{sys: s, root: make([]float64, s.Dim()), u0: make([]float64, s.Dim())}
	draw(rng, c.root, replayBound)
	if err := s.SetRHSForRoot(c.root); err != nil {
		return nil, err
	}
	for i := range c.u0 {
		c.u0[i] = c.root[i] + 0.05*replayBound*(2*rng.Float64()-1)
	}
	return c, nil
}

// newTransient draws a burgers2d Crank–Nicolson instance.
func newTransient(n int, seed int64) (*pde.Burgers, error) {
	b, err := pde.NewBurgers(n, 1)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	draw(rng, b.UPrev, replayBound)
	draw(rng, b.VPrev, replayBound)
	draw(rng, b.RHS0, replayBound)
	draw(rng, b.RHS1, replayBound)
	return b, nil
}

// newAnalogSeeder builds the accelerator the service builds for a problem
// of vars scalar variables.
func newAnalogSeeder(vars int) *timedSeeder {
	tiles := analog.PrototypeChip.Tiles
	acc := analog.NewAccelerator(analog.Config{Chips: (vars + tiles - 1) / tiles, Seed: 1 + int64(vars)})
	return &timedSeeder{inner: core.AnalogSeeder(acc)}
}

// replayResult is the replay's account: per-layer metrics (traced run
// only) and spans.
type replayResult struct {
	metrics map[string]float64
	spans   []span
}

// solveCase is one replayed buffered solve.
type solveCase struct {
	sys   replaySystem
	start []float64 // nil: the system's own warm start
	root  []float64 // planted root to recover, or nil
}

// ladderStats accumulates replayed ladder solves.
type ladderStats struct {
	ladderNS                         []int64
	solves, iters, lin, refac, rungs int
	degraded                         int
	factorOps                        int64
	evalN, jacN                      int
	evalNS, jacNS                    int64
}

func (s *ladderStats) add(rep core.Report, t *timed, ns int64) {
	s.ladderNS = append(s.ladderNS, ns)
	s.solves++
	s.iters += rep.Digital.TotalIters
	s.lin += rep.Digital.LinearSolves
	s.refac += rep.Digital.Refactorizations
	s.factorOps += rep.Digital.FactorOps
	if fb := rep.Fallback; fb != nil {
		s.rungs += len(fb.Attempts)
		if fb.Degraded {
			s.degraded++
		}
	}
	s.evalN += t.evalN
	s.jacN += t.jacN
	s.evalNS += t.evalNS
	s.jacNS += t.jacNS
}

func (s *ladderStats) into(m map[string]float64) {
	n := float64(s.solves)
	m["core.ladder_ms"] = medianNS(s.ladderNS) / 1e6
	m["core.rung_attempts_per_op"] = float64(s.rungs) / n
	m["core.degraded"] = float64(s.degraded) / n
	m["nonlin.iters_per_solve"] = float64(s.iters) / n
	m["nonlin.linear_solves_per_solve"] = float64(s.lin) / n
	m["nonlin.refactors_per_solve"] = float64(s.refac) / n
	m["la.factor_mmadds_per_solve"] = float64(s.factorOps) / n
	m["pde.eval_calls_per_solve"] = float64(s.evalN) / n
	m["pde.jacobian_calls_per_solve"] = float64(s.jacN) / n
	m["pde.eval_us"] = float64(s.evalNS) / float64(max(s.evalN, 1)) / 1e3
	m["pde.jacobian_us"] = float64(s.jacNS) / float64(max(s.jacN, 1)) / 1e3
}

// replayLadder solves every case through one core.Ladder and workspace, as
// a service worker does. The first pass warms the workspace; the second is
// measured. Planted roots are checked on both.
func replayLadder(ctx context.Context, cases []solveCase, procs int, seeder *timedSeeder, res *replayResult) (*ladderStats, error) {
	ladder := core.NewLadder()
	ws := core.NewWorkspace()
	var st ladderStats
	for pass := 0; pass < 2; pass++ {
		if seeder != nil {
			seeder.ns = seeder.ns[:0]
		}
		for i, c := range cases {
			rid := fmt.Sprintf("replay-%d", i+1)
			t := &timed{replaySystem: c.sys, parent: rid + "/core.ladder", rid: rid, recordSubspans: pass == 1}
			opts := core.Options{Workspace: ws, Procs: procs, InitialGuess: c.start}
			if seeder != nil {
				opts.Seeder = seeder
			} else {
				opts.SkipAnalog = true
			}
			start := nowNS()
			rep, err := ladder.Solve(ctx, t, opts, core.LadderOptions{})
			end := nowNS()
			if err != nil {
				return nil, fmt.Errorf("replay %d: %w", i+1, err)
			}
			if !rep.Digital.Converged || !(rep.FinalResidual <= check.Tol) {
				return nil, fmt.Errorf("replay %d: converged=%v residual %g", i+1, rep.Digital.Converged, rep.FinalResidual)
			}
			if c.root != nil {
				if err := check.Root(rep.U, c.root, rootBound); err != nil {
					return nil, fmt.Errorf("replay %d: %w", i+1, err)
				}
			}
			if pass == 1 {
				st.add(rep, t, end-start)
				res.spans = append(res.spans, span{ID: t.parent, Name: "core.ladder", RID: rid, Start: start, End: end})
				res.spans = append(res.spans, t.spans...)
			}
		}
	}
	return &st, nil
}

// newtonOptions mirrors the digital polish core.Solve configures.
func newtonOptions(procs int) nonlin.NewtonOptions {
	return nonlin.NewtonOptions{Tol: check.Tol, MaxIter: 400, AutoDamp: true, Procs: procs}
}

// newtonLayers adds the traced run's bare Newton measurements on one
// instance: the solve's self time (nonlin) and the same solve at one and
// two workers (par). It returns the solution for bandLayers.
func newtonLayers(ctx context.Context, c solveCase, procs int, m map[string]float64) ([]float64, error) {
	start := c.start
	if start == nil {
		start = make([]float64, c.sys.Dim())
		c.sys.InitialGuessInto(start)
	}
	var u []float64
	solve := func(p int) (int64, int64, error) {
		var sol nonlin.SparseSolver
		defer sol.Close()
		t := &timed{replaySystem: c.sys}
		s := nowNS()
		res, err := sol.Solve(ctx, t, start, newtonOptions(p))
		d := nowNS() - s
		if err == nil && !res.Converged {
			err = fmt.Errorf("newton replay did not converge (residual %g)", res.Residual)
		}
		u = append(u[:0], res.U...)
		return d, d - t.pdeNS(), err
	}
	var selfNS, one, two []int64
	for r := 0; r < 5; r++ {
		_, self, err := solve(procs)
		if err != nil {
			return nil, err
		}
		selfNS = append(selfNS, self)
		d1, _, err := solve(1)
		if err != nil {
			return nil, err
		}
		d2, _, err := solve(2)
		if err != nil {
			return nil, err
		}
		one, two = append(one, d1), append(two, d2)
	}
	m["nonlin.self_ms"] = medianNS(selfNS) / 1e6
	m["par.speedup"] = medianNS(one) / medianNS(two)
	return u, nil
}

// bandLayers times direct serial la.FactorBandLUInto and BandLU.Solve calls
// on the system's Jacobian at u, and returns the multiply-adds of one
// factorization.
func bandLayers(sys replaySystem, u []float64, m map[string]float64) (int64, error) {
	j, err := sys.JacobianCSR(u)
	if err != nil {
		return 0, err
	}
	n := j.Rows()
	kl, ku := la.Bandwidths(j)
	var lu la.BandLU
	var factorNS []int64
	var total int64
	for len(factorNS) < 5 || (total < 100e6 && len(factorNS) < 200) {
		s := nowNS()
		if err := la.FactorBandLUInto(&lu, j, kl, ku); err != nil {
			return 0, err
		}
		d := nowNS() - s
		factorNS = append(factorNS, d)
		total += d
	}
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range b {
		b[i] = 1 / float64(i+1)
	}
	var solveNS []int64
	total = 0
	for len(solveNS) < 20 || (total < 50e6 && len(solveNS) < 2000) {
		s := nowNS()
		if err := lu.Solve(x, b); err != nil {
			return 0, err
		}
		d := nowNS() - s
		solveNS = append(solveNS, d)
		total += d
	}
	factorMS := medianNS(factorNS) / 1e6
	m["la.factor_ms"] = factorMS
	m["la.backsolve_us"] = medianNS(solveNS) / 1e3
	m["la.factor_gflops"] = 2 * float64(lu.FactorOps) / (factorMS * 1e6)
	m["la.band_mb"] = float64(n*(2*kl+ku+1)*8+n*8) / (1 << 20)
	return lu.FactorOps, nil
}

// kernelLayers runs newtonLayers and bandLayers on one buffered case.
func kernelLayers(ctx context.Context, c solveCase, procs int, m map[string]float64) error {
	u, err := newtonLayers(ctx, c, procs, m)
	if err != nil {
		return err
	}
	_, err = bandLayers(c.sys, u, m)
	return err
}

// ---- per-workload replays ---------------------------------------------------

func (f *fleetSweep) replay(ctx context.Context, full bool) (replayResult, error) {
	res := replayResult{metrics: map[string]float64{}}
	var cases []solveCase
	for _, req := range f.ids[:4] {
		c, err := newSteadyCase(req.N, req.Order, req.Re, req.Seed)
		if err != nil {
			return res, err
		}
		cases = append(cases, solveCase{sys: c.sys, start: c.u0, root: c.root})
	}
	st, err := replayLadder(ctx, cases, 1, nil, &res)
	if err != nil || !full {
		return res, err
	}
	st.into(res.metrics)
	return res, kernelLayers(ctx, cases[0], 1, res.metrics)
}

func (w *coldLarge) replay(ctx context.Context, full bool) (replayResult, error) {
	res := replayResult{metrics: map[string]float64{}}
	samples := 1
	if full {
		samples = 2
	}
	var cases []solveCase
	for i := 0; i < samples; i++ {
		c, err := newSteadyCase(coldN, 2, 1, w.base+int64(i)+1)
		if err != nil {
			return res, err
		}
		cases = append(cases, solveCase{sys: c.sys, start: c.u0, root: c.root})
	}
	st, err := replayLadder(ctx, cases, 2, nil, &res)
	if err != nil || !full {
		return res, err
	}
	st.into(res.metrics)
	return res, kernelLayers(ctx, cases[0], 2, res.metrics)
}

func (w *analogSeeded) replay(ctx context.Context, full bool) (replayResult, error) {
	res := replayResult{metrics: map[string]float64{}}
	samples := 1
	if full {
		samples = analogSample
	}
	var cases []solveCase
	for i := 0; i < samples; i++ {
		b, err := newTransient(analogN, w.base+int64(i)+1)
		if err != nil {
			return res, err
		}
		cases = append(cases, solveCase{sys: b})
	}
	seeder := newAnalogSeeder(cases[0].sys.Dim())
	st, err := replayLadder(ctx, cases, 1, seeder, &res)
	if err != nil || !full {
		return res, err
	}
	st.into(res.metrics)
	res.metrics["analog.seed_ms"] = medianNS(seeder.ns) / 1e6
	return res, kernelLayers(ctx, cases[0], 1, res.metrics)
}

// replay marches one trajectory with chord Newton (timed, as the service
// streams it) and the same trajectory with classical Newton; the two must
// agree step by step. The traced run also marches the chord trajectory at
// one and two workers.
func (w *streamLoad) replay(ctx context.Context, full bool) (replayResult, error) {
	res := replayResult{metrics: map[string]float64{}}
	type marched struct {
		traj   [][]float64
		st     ladderStats
		selfNS []int64
		sys    replaySystem
		wallNS int64
	}
	march := func(chord bool, procs int, rec bool) (*marched, error) {
		b, err := newTransient(streamN, w.base+1)
		if err != nil {
			return nil, err
		}
		out := &marched{sys: b}
		t := &timed{replaySystem: b, parent: "replay-1/core.timeloop", rid: "replay-1", recordSubspans: rec}
		opts := core.Options{Workspace: core.NewWorkspace(), Procs: procs, SkipAnalog: true}
		opts.Newton.Chord = chord
		st := &out.st
		begin := nowNS()
		last, lastPDE := begin, int64(0)
		emit := func(f *core.Frame) error {
			now := nowNS()
			if !f.Converged || !(f.Residual <= check.Tol) {
				return fmt.Errorf("step %d: converged=%v residual %g", f.Step, f.Converged, f.Residual)
			}
			out.traj = append(out.traj, append([]float64(nil), f.U...))
			pde := t.pdeNS()
			st.ladderNS = append(st.ladderNS, now-last)
			out.selfNS = append(out.selfNS, now-last-(pde-lastPDE))
			st.solves++
			st.iters += f.Iterations
			st.lin += f.LinearSolves
			st.refac += f.Refactorizations
			// Frames carry no attempt list: a clean step is one rung, a
			// degraded one at least two.
			st.rungs++
			if f.Degraded {
				st.degraded++
				st.rungs++
			}
			if rec {
				res.spans = append(res.spans, span{ID: fmt.Sprintf("replay-1/core.step%d", f.Step), Name: "core.step", Parent: "replay-1/core.timeloop", RID: "replay-1", Start: last, End: now})
			}
			last, lastPDE = nowNS(), t.pdeNS()
			return nil
		}
		tl := core.TimeLoopOptions{Steps: streamSteps, Ladder: core.NewLadder()}
		tr, err := core.TimeLoop(ctx, timedTransient{timed: t, b: b}, opts, tl, emit)
		out.wallNS = nowNS() - begin
		if err != nil {
			return nil, err
		}
		if tr.Steps != streamSteps {
			return nil, fmt.Errorf("time loop delivered %d steps", tr.Steps)
		}
		if rec {
			res.spans = append(res.spans, span{ID: t.parent, Name: "core.timeloop", RID: "replay-1", Start: begin, End: begin + out.wallNS})
			res.spans = append(res.spans, t.spans...)
		}
		st.evalN, st.jacN, st.evalNS, st.jacNS = t.evalN, t.jacN, t.evalNS, t.jacNS
		return out, nil
	}
	chord, err := march(true, 1, full)
	if err != nil {
		return res, err
	}
	classical, err := march(false, 1, false)
	if err != nil {
		return res, err
	}
	if err := check.Trajectories(chord.traj, classical.traj, trajectoryTol); err != nil {
		return res, fmt.Errorf("chord vs classical Newton: %w", err)
	}
	if !full {
		return res, nil
	}
	chord.st.into(res.metrics)
	// On a time loop the ladder span is the step span.
	res.metrics["core.step_ms"] = res.metrics["core.ladder_ms"]
	res.metrics["nonlin.self_ms"] = medianNS(chord.selfNS) / 1e6
	var one, two []int64
	for r := 0; r < 3; r++ {
		for _, p := range []int{1, 2} {
			m, err := march(true, p, false)
			if err != nil {
				return res, err
			}
			if p == 1 {
				one = append(one, m.wallNS)
			} else {
				two = append(two, m.wallNS)
			}
		}
	}
	res.metrics["par.speedup"] = medianNS(one) / medianNS(two)
	ops, err := bandLayers(chord.sys, chord.traj[len(chord.traj)-1], res.metrics)
	if err != nil {
		return res, err
	}
	// Frames carry no factorization work: every refactorization of the
	// fixed-pattern Jacobian costs what the direct factorization counted.
	res.metrics["la.factor_mmadds_per_solve"] = res.metrics["nonlin.refactors_per_solve"] * float64(ops)
	return res, nil
}

func medianNS(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 1 {
		return float64(s[n/2])
	} else {
		return float64(s[n/2-1]+s[n/2]) / 2
	}
}
