// Command perfbench is the closed-loop request-path benchmark of the
// hybrid solve service: one client drives one named workload against real
// pdeserved backends (and a pdegw gateway where the workload routes through
// one) over loopback HTTP, checks every answer, and prints the end-to-end
// metrics — or, with -trace 1, the per-layer metrics — as one JSON object
// on the last line of standard output.
//
// Usage:
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1 [-spans FILE]
//
// Workloads: fleet-sweep, cold-large, stream, analog-seeded. See README.md
// for what each sends, the servers' flags and the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median. The last set-up serves the timed phase.
const setupReps = 3

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"mem_peak_mb", "MiB"},
}

var perLayer = []metricDef{
	{"client.self_ms", "ms"},
	{"client.ttff_ms", "ms"},
	{"cluster.hop_ms", "ms"},
	{"cluster.batch_size_mean", "count"},
	{"cluster.stream_hop_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.first_frame_ms", "ms"},
	{"serve.frame_gap_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"cache.warm_ratio", "ratio"},
	{"cache.entries", "count"},
	{"core.ladder_ms", "ms"},
	{"core.rung_attempts_per_op", "count"},
	{"core.degraded", "ratio"},
	{"core.step_ms", "ms"},
	{"analog.seed_ms", "ms"},
	{"analog.seed_accept_ratio", "ratio"},
	{"analog.seed_gain", "ratio"},
	{"nonlin.iters_per_solve", "count"},
	{"nonlin.linear_solves_per_solve", "count"},
	{"nonlin.refactors_per_solve", "count"},
	{"nonlin.self_ms", "ms"},
	{"pde.eval_calls_per_solve", "count"},
	{"pde.eval_us", "us"},
	{"pde.jacobian_calls_per_solve", "count"},
	{"pde.jacobian_us", "us"},
	{"la.factor_ms", "ms"},
	{"la.backsolve_us", "us"},
	{"la.factor_mmadds_per_solve", "count"},
	{"la.factor_gflops", "GFLOP/s"},
	{"la.band_mb", "MiB"},
	{"par.speedup", "x"},
	{"runtime.alloc_kb_per_op", "KiB"},
}

func main() {
	var (
		child    = flag.String("child", "", "internal: run the serving side of a workload (JSON topology)")
		name     = flag.String("workload", "", "workload: fleet-sweep, cold-large, stream or analog-seeded")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer mode")
		spansOut = flag.String("spans", "", "traced mode: span file (default .bench_build/trace/<workload>-<seed>.jsonl)")
	)
	flag.Parse()
	if *child != "" {
		os.Exit(runChild(*child))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	var (
		out result
		err error
	)
	if *trace == 1 {
		path := *spansOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", *name, *seed))
		}
		out, err = runTraced(ctx, *name, *seed, *seconds, path)
	} else {
		out, err = runPlain(ctx, *name, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills the declared metrics from m; a declared metric missing
// from m is an error of the benchmark itself.
func newResult(r *record, correct bool, defs []metricDef, m map[string]float64) (result, error) {
	out := result{Correct: correct, Attempted: r.tally.Attempted, Failed: r.tally.Failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return out, fmt.Errorf("no value for %s", strings.Join(missing, ", "))
	}
	if out.Attempted < 1 {
		return out, errors.New("no operation was attempted")
	}
	return out, nil
}

// session is one set-up workload: its running servers and its client.
type session struct {
	w       workload
	srv     *servers
	c       *client
	setupNS int64
}

// setUp boots the workload's servers and runs its warm-up; the elapsed
// time is the set-up time.
func setUp(ctx context.Context, w workload, topo topology, prefix string) (*session, error) {
	start := nowNS()
	srv, err := startServers(ctx, topo)
	if err != nil {
		return nil, err
	}
	c := newClient(srv.Entry, prefix)
	if err := w.warmUp(ctx, c); err != nil {
		return nil, errors.Join(fmt.Errorf("warm-up: %w", err), srv.stop())
	}
	return &session{w: w, srv: srv, c: c, setupNS: nowNS() - start}, nil
}

// A window is a slice of the timed phase that closes at the first round
// end after at least windowNS and windowOps operations. Rates are medians
// over windows, so a burst of interference in one window (a GC cycle, a
// neighbour on the host) does not move them.
const (
	windowNS  = 1e9
	windowOps = 20
)

type window struct {
	ops           int
	wallNS, cpuNS int64
}

// measured is the outcome of one timed phase.
type measured struct {
	rec     record
	windows []window
	before  usage
	after   usage
}

// timedPhase runs whole rounds of the workload until seconds have passed,
// reading the child's CPU time at every window boundary. The control call
// falls between windows, outside any of them.
func timedPhase(ctx context.Context, s *session, seconds float64) (*measured, error) {
	ctl := &http.Client{}
	m := &measured{}
	var err error
	if m.before, err = s.srv.usage(ctl); err != nil {
		return nil, err
	}
	last, lastOps := m.before, 0
	start := nowNS()
	deadline, open := start+int64(seconds*1e9), start
	for first := true; first || nowNS() < deadline; first = false {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		s.w.round(ctx, s.c, &m.rec)
		end, ops := nowNS(), len(m.rec.samples)
		if end-open < windowNS || ops-lastOps < windowOps {
			continue
		}
		u, err := s.srv.usage(ctl)
		if err != nil {
			return nil, err
		}
		m.windows = append(m.windows, window{ops: ops - lastOps, wallNS: end - open, cpuNS: u.CPUNanos - last.CPUNanos})
		last, lastOps, open = u, ops, nowNS()
	}
	if m.after, err = s.srv.usage(ctl); err != nil {
		return nil, err
	}
	if len(m.windows) == 0 {
		// A phase too short to close a window is one window.
		m.windows = append(m.windows, window{ops: len(m.rec.samples), wallNS: nowNS() - start, cpuNS: m.after.CPUNanos - m.before.CPUNanos})
	}
	return m, nil
}

// endToEndMetrics derives the end-to-end metrics of a timed phase.
func endToEndMetrics(m *measured, setupNS []int64) map[string]float64 {
	var rate, cpu []float64
	for _, w := range m.windows {
		rate = append(rate, float64(w.ops)/(float64(w.wallNS)/1e9))
		cpu = append(cpu, float64(w.cpuNS)/1e6/float64(w.ops))
	}
	return map[string]float64{
		"setup_s":          medianNS(setupNS) / 1e9,
		"latency_p50_ms":   quantile(latencies(m.rec.samples), 0.5),
		"throughput_ops_s": quantile(rate, 0.5),
		"cpu_ms_per_op":    quantile(cpu, 0.5),
		"mem_peak_mb":      float64(m.after.MaxRSSKiB) / 1024,
	}
}

// reference prints the latency tail with its sample count: the highest of
// p99.9, p99, p95 and p90 that has at least ten samples beyond it. Tails are
// reported but not gated; a single client's tail does not repeat run to run.
func reference(name string, m *measured) {
	lat := latencies(m.rec.samples)
	tail := "no tail (fewer than 100 samples)"
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9} {
		if float64(len(lat))*(1-q) >= 10 {
			tail = fmt.Sprintf("p%g %.4g ms", 100*q, quantile(lat, q))
			break
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops, p50 %.4g ms, %s (reference only)\n",
		name, len(lat), quantile(lat, 0.5), tail)
	if m.rec.tally.First != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d failed operations; first: %v\n", name, m.rec.tally.Failed, m.rec.tally.First)
	}
}

// runPlain is the untraced mode: set up setupReps times, time the last
// set-up's workload, verify, and report the end-to-end metrics.
func runPlain(ctx context.Context, name string, seed int64, seconds float64) (result, error) {
	var setupNS []int64
	var s *session
	for i := 0; i < setupReps; i++ {
		w, err := newWorkload(name, seed)
		if err != nil {
			return result{}, err
		}
		if s, err = setUp(ctx, w, w.topology(), fmt.Sprintf("%s-%d-", name, seed)); err != nil {
			return result{}, err
		}
		setupNS = append(setupNS, s.setupNS)
		if i < setupReps-1 {
			if err := s.srv.stop(); err != nil {
				return result{}, err
			}
		}
	}
	m, err := timedPhase(ctx, s, seconds)
	if err != nil {
		return result{}, errors.Join(err, s.srv.stop())
	}
	reference(name, m)
	_, correct := verifyAll(ctx, name, s, m, false)
	if err := s.srv.stop(); err != nil {
		return result{}, err
	}
	return newResult(&m.rec, correct, endToEnd, endToEndMetrics(m, setupNS))
}

// verifyAll runs the workload's post-phase checks and its replay (with the
// traced run's measurements when full); a failure makes the run incorrect.
func verifyAll(ctx context.Context, name string, s *session, m *measured, full bool) (replayResult, bool) {
	correct := true
	if err := s.w.verify(ctx, s.c, &m.rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", name, err)
		correct = false
	}
	rep, err := s.w.replay(ctx, full)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: replay failed: %v\n", name, err)
		correct = false
	}
	return rep, correct
}

// ---- statistics ---------------------------------------------------------------

func latencies(samples []opSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.latency()
	}
	return out
}

// quantile is the q-quantile of v, interpolated linearly between the two
// nearest ranks (NaN when v is empty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
