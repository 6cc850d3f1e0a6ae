package main

import (
	"context"
	"encoding/json"
	"fmt"

	"hybridpde/internal/cache"
	"hybridpde/internal/cluster"
	"hybridpde/internal/serve"
	"hybridpde/perfbench/check"
)

// request is the wire form of a solve or stream request.
type request struct {
	Problem         string  `json:"problem"`
	N               int     `json:"n"`
	Re              float64 `json:"re,omitempty"`
	Order           int     `json:"order,omitempty"`
	Seed            int64   `json:"seed"`
	Analog          bool    `json:"analog,omitempty"`
	Steps           int     `json:"steps,omitempty"`
	IncludeSolution bool    `json:"include_solution,omitempty"`
}

func (r request) body() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a fixed struct of scalars always marshals
	}
	return b
}

// record accumulates one workload run's timed operations.
type record struct {
	tally   check.Tally
	samples []opSample
	// gains holds initial_residual/seed_residual of analog answers.
	gains []float64
}

func (r *record) add(s opSample, err error) {
	r.tally.Record(err)
	r.samples = append(r.samples, s)
}

// workload is one named benchmark workload: its serving topology, its
// untimed warm-up, one round of timed operations, and the checks that run
// after the timed phase.
type workload interface {
	topology() topology
	warmUp(ctx context.Context, c *client) error
	round(ctx context.Context, c *client, r *record)
	verify(ctx context.Context, c *client, r *record) error
	// replay solves a sample of the workload's inputs in process; full
	// adds the per-layer measurements of the traced run.
	replay(ctx context.Context, full bool) (replayResult, error)
}

var workloadNames = []string{"fleet-sweep", "cold-large", "stream", "analog-seeded"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "fleet-sweep":
		return newFleetSweep(seed), nil
	case "cold-large":
		return &coldLarge{base: seed * 1_000_000}, nil
	case "stream":
		return &streamLoad{base: seed * 1_000_000}, nil
	case "analog-seeded":
		return &analogSeeded{base: seed * 1_000_000}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// warmSeed is a seed no timed operation uses: warm-up requests build
// per-shape problems, factorizations and fabrics without putting a timed
// identity into the solve cache.
func warmSeed(i int) int64 { return -1 - int64(i) }

// solveOnce sends one buffered request and checks the answer.
func solveOnce(ctx context.Context, c *client, req request) (check.Answer, []byte, opSample, error) {
	status, body, s, err := c.do(ctx, "/v1/solve", req.body())
	if err != nil {
		return check.Answer{}, body, s, err
	}
	a, err := check.Solve(status, body)
	s.Queue, s.Solve = a.QueueSeconds, a.SolveSeconds
	return a, body, s, err
}

// ---- fleet-sweep ----------------------------------------------------------

// fleetSweep sends a fixed burgers-steady n=5 parameter sweep through the
// gateway to two backends. Identities are (seed, re, order): 4 field seeds ×
// 8 Reynolds numbers × orders 2 and 4. Orders are the two grid shapes, one
// per backend. A round visits every identity once, re ascending, so the
// first round solves each (seed, order) cold at re=1 and warm-starts the
// rest from the neighbour 0.125 below (inside the 0.25 warm radius); every
// later round is exact cache hits.
type fleetSweep struct {
	ids   []request
	first [][]byte
}

const fleetN = 5

func newFleetSweep(seed int64) *fleetSweep {
	f := &fleetSweep{}
	for j := 0; j < 8; j++ {
		for k := int64(0); k < 4; k++ {
			for _, order := range []int{2, 4} {
				f.ids = append(f.ids, request{Problem: "burgers-steady", N: fleetN, Re: 1 + 0.125*float64(j), Order: order, Seed: seed*1000 + k + 1})
			}
		}
	}
	f.first = make([][]byte, len(f.ids))
	return f
}

func (f *fleetSweep) topology() topology {
	return topology{Backends: []backendSpec{{}, {}}, Gateway: true}
}

// ringSplitsShapes checks that the two sweep shapes land on different
// backends of the gateway's ring.
func ringSplitsShapes() error {
	ring, err := cluster.NewRing([]string{backendName(0), backendName(1)}, cluster.DefaultVNodes)
	if err != nil {
		return err
	}
	owner := map[string]int{}
	for _, order := range []int{2, 4} {
		req := serve.Request{Problem: "burgers-steady", N: fleetN, Order: order}
		var kb cache.KeyBuilder
		owner[ring.Assign(serve.ShapeKey(&req, &kb))]++
	}
	if len(owner) != 2 {
		return fmt.Errorf("both sweep shapes map to one backend (%v)", owner)
	}
	return nil
}

func (f *fleetSweep) warmUp(ctx context.Context, c *client) error {
	if err := ringSplitsShapes(); err != nil {
		return err
	}
	// Two requests per shape warm both workers of its backend.
	for i := 0; i < 4; i++ {
		req := request{Problem: "burgers-steady", N: fleetN, Order: 2 + 2*(i%2), Seed: warmSeed(i)}
		if _, _, _, err := solveOnce(ctx, c, req); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleetSweep) round(ctx context.Context, c *client, r *record) {
	for i, req := range f.ids {
		_, body, s, err := solveOnce(ctx, c, req)
		if err == nil {
			if f.first[i] == nil {
				f.first[i] = body
			} else {
				err = check.Revisit(f.first[i], body)
			}
		}
		r.add(s, err)
	}
}

// verify makes sure the run reached the revisits whose bytes round checks.
func (f *fleetSweep) verify(ctx context.Context, c *client, r *record) error {
	if r.tally.Attempted < 2*len(f.ids) {
		return fmt.Errorf("only %d operations ran: no identity was revisited", r.tally.Attempted)
	}
	return nil
}

// ---- cold-large -----------------------------------------------------------

// coldLarge sends burgers-steady n=32 (dim 2048) requests with seeds that
// never repeat straight to one single-worker backend: every request misses
// the cache and runs the digital rung.
type coldLarge struct {
	base int64
	next int64
}

const coldN = 32

func (w *coldLarge) topology() topology {
	return topology{Backends: []backendSpec{{Workers: 1}}, MaxGridN: coldN}
}

func (w *coldLarge) warmUp(ctx context.Context, c *client) error {
	_, _, _, err := solveOnce(ctx, c, request{Problem: "burgers-steady", N: coldN, Seed: warmSeed(0)})
	return err
}

func (w *coldLarge) round(ctx context.Context, c *client, r *record) {
	w.next++
	_, _, s, err := solveOnce(ctx, c, request{Problem: "burgers-steady", N: coldN, Seed: w.base + w.next})
	r.add(s, err)
}

func (w *coldLarge) verify(ctx context.Context, c *client, r *record) error { return nil }

// ---- stream ---------------------------------------------------------------

// streamLoad sends POST /v1/stream trajectories of burgers2d n=16, 128
// steps each, with distinct seeds, through the gateway to one backend.
type streamLoad struct {
	base int64
	next int64
	// sums keeps the frame checksums of the first trajectories for the
	// repeat check.
	sums [][]string
}

const (
	streamN     = 16
	streamSteps = 128
	// streamRepeats is how many timed trajectories are requested again,
	// with solution vectors, after the timed phase.
	streamRepeats = 2
)

func (w *streamLoad) topology() topology {
	return topology{Backends: []backendSpec{{}}, Gateway: true, MaxGridN: streamN}
}

func (w *streamLoad) req(seed int64, steps int, withU bool) request {
	return request{Problem: "burgers2d", N: streamN, Seed: seed, Steps: steps, IncludeSolution: withU}
}

func (w *streamLoad) warmUp(ctx context.Context, c *client) error {
	// One short trajectory per worker builds the problem and its first
	// factorization.
	for i := 0; i < 2; i++ {
		status, body, _, err := c.do(ctx, "/v1/stream", w.req(warmSeed(i), 8, false).body())
		if err == nil {
			_, err = check.Stream(status, body, 8)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *streamLoad) round(ctx context.Context, c *client, r *record) {
	w.next++
	status, body, s, err := c.do(ctx, "/v1/stream", w.req(w.base+w.next, streamSteps, false).body())
	if err == nil {
		var tr check.Trajectory
		tr, err = check.Stream(status, body, streamSteps)
		s.Queue, s.Solve = tr.Summary.QueueSeconds, tr.Summary.SolveSeconds
		if err == nil && len(w.sums) < streamRepeats {
			w.sums = append(w.sums, tr.Checksums())
		}
	}
	r.add(s, err)
}

// verify requests the first timed trajectories again with solution
// vectors: Stream recomputes every frame's checksum from its vector, and
// the repeat must reproduce the timed run's checksums.
func (w *streamLoad) verify(ctx context.Context, c *client, r *record) error {
	for i, sums := range w.sums {
		status, body, _, err := c.do(ctx, "/v1/stream", w.req(w.base+int64(i)+1, streamSteps, true).body())
		if err != nil {
			return err
		}
		tr, err := check.Stream(status, body, streamSteps)
		if err != nil {
			return fmt.Errorf("repeat of trajectory %d: %w", i+1, err)
		}
		if err := check.SameChecksums(sums, tr.Checksums()); err != nil {
			return fmt.Errorf("repeat of trajectory %d: %w", i+1, err)
		}
	}
	return nil
}

// ---- analog-seeded --------------------------------------------------------

// analogSeeded sends burgers2d n=8 requests with analog:true and distinct
// seeds straight to one default backend: the behavioural accelerator seeds
// every request and the analog rung serves it.
type analogSeeded struct {
	base  int64
	next  int64
	iters []int // Newton iterations of the first seeded answers
}

const (
	analogN = 8
	// analogSample is how many timed requests are re-sent unseeded.
	analogSample = 4
)

func (w *analogSeeded) topology() topology { return topology{Backends: []backendSpec{{}}} }

func (w *analogSeeded) req(seed int64, analog bool) request {
	return request{Problem: "burgers2d", N: analogN, Seed: seed, Analog: analog}
}

func (w *analogSeeded) warmUp(ctx context.Context, c *client) error {
	// One request per worker builds its accelerator.
	for i := 0; i < 2; i++ {
		a, _, _, err := solveOnce(ctx, c, w.req(warmSeed(i), true))
		if err == nil {
			err = check.Analog(a)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *analogSeeded) round(ctx context.Context, c *client, r *record) {
	w.next++
	a, _, s, err := solveOnce(ctx, c, w.req(w.base+w.next, true))
	if err == nil {
		err = check.Analog(a)
	}
	if err == nil {
		r.gains = append(r.gains, a.InitialResidual/a.SeedResidual)
		if len(w.iters) < analogSample {
			w.iters = append(w.iters, a.Iterations)
		}
	}
	r.add(s, err)
}

// verify re-sends the first timed requests without the analog stage: the
// seeded solves must not have needed more Newton iterations.
func (w *analogSeeded) verify(ctx context.Context, c *client, r *record) error {
	for i, seeded := range w.iters {
		a, _, _, err := solveOnce(ctx, c, w.req(w.base+int64(i)+1, false))
		if err != nil {
			return fmt.Errorf("unseeded repeat %d: %w", i+1, err)
		}
		if err := check.SeededIters(seeded, a.Iterations); err != nil {
			return fmt.Errorf("request %d: %w", i+1, err)
		}
	}
	return nil
}
