package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The traced run is the same workload with every API handler wrapped in a
// span recorder, followed by the in-process replay. Per-layer metrics come
// from the spans (self time is a span minus its child span), from the
// served queue_seconds/solve_seconds, from /metrics deltas over the timed
// phase, and from the replay's decorators and direct kernel calls.

// probeSeconds is the timed phase of a probe: a short traced run of another
// workload that supplies the per-layer metrics of layers the requested
// workload's path does not reach. Probes run in probeOrder until every
// metric has a value; cold-large comes last because its path reaches no
// layer the other three miss.
const probeSeconds = 2

var probeOrder = []string{"fleet-sweep", "stream", "analog-seeded", "cold-large"}

// coverageTol is how far the sum of the per-layer median self times may
// stray from the traced median latency, as a share of it.
const coverageTol = 0.15

func runTraced(ctx context.Context, name string, seed int64, seconds float64, path string) (result, error) {
	tr, err := traceWorkload(ctx, name, seed, seconds)
	if err != nil {
		return result{}, err
	}
	spans := tr.spans
	correct := tr.correct
	for _, other := range probeOrder {
		if other == name || !missingAny(tr.metrics) {
			continue
		}
		probe, err := traceWorkload(ctx, other, seed, probeSeconds)
		if err != nil {
			return result{}, fmt.Errorf("probe %s: %w", other, err)
		}
		for _, d := range perLayer {
			v, have := probe.metrics[d.name]
			if _, ok := tr.metrics[d.name]; have && !ok {
				tr.metrics[d.name] = v
				fmt.Fprintf(os.Stderr, "perfbench: %s: %s measured on %s (layer not on this path)\n", name, d.name, other)
			}
		}
		correct = correct && probe.correct
		spans = append(spans, probe.spans...)
	}
	if err := writeSpans(path, spans); err != nil {
		return result{}, err
	}
	return newResult(&tr.m.rec, correct, perLayer, tr.metrics)
}

func missingAny(m map[string]float64) bool {
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			return true
		}
	}
	return false
}

type traced struct {
	m       *measured
	metrics map[string]float64
	spans   []span
	correct bool
}

// traceWorkload sets the workload up once with span recording on, runs the
// timed phase, checks it, replays it in process and derives its per-layer
// metrics.
func traceWorkload(ctx context.Context, name string, seed int64, seconds float64) (*traced, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	topo := w.topology()
	topo.Trace = true
	s, err := setUp(ctx, w, topo, fmt.Sprintf("%s-%d-", name, seed))
	if err != nil {
		return nil, err
	}
	tr, err := traceSession(ctx, name, s, seconds)
	return tr, errors.Join(err, s.srv.stop())
}

func traceSession(ctx context.Context, name string, s *session, seconds float64) (*traced, error) {
	ctl := &http.Client{}
	addrs := append([]string{}, s.srv.Backends...)
	if s.srv.Gateway != "" {
		addrs = append(addrs, s.srv.Gateway)
	}
	before, err := scrapeAll(ctl, addrs)
	if err != nil {
		return nil, err
	}
	m, err := timedPhase(ctx, s, seconds)
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(ctl, addrs)
	if err != nil {
		return nil, err
	}
	served, err := s.srv.spans(ctl)
	if err != nil {
		return nil, err
	}
	reference(name+" (traced)", m)
	rep, correct := verifyAll(ctx, name, s, m, true)
	tr := &traced{m: m, metrics: rep.metrics, correct: correct}
	spans, err := servedLayers(name, m, served, before, after, s.srv.Gateway != "", tr.metrics)
	if err != nil {
		return nil, err
	}
	for _, sp := range rep.spans {
		sp.ID = name + "/" + sp.ID
		if sp.Parent != "" {
			sp.Parent = name + "/" + sp.Parent
		}
		sp.RID = name + "/" + sp.RID
		spans = append(spans, sp)
	}
	tr.spans = spans
	return tr, nil
}

// scrapeAll sums the /metrics pages of every server.
func scrapeAll(c *http.Client, addrs []string) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, a := range addrs {
		page, err := scrape(c, a)
		if err != nil {
			return nil, err
		}
		keys := make([]string, 0, len(page))
		for k := range page {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sum[k] += page[k]
		}
	}
	return sum, nil
}

// servedLayers derives the per-layer metrics of the served path and
// returns the run's client and handler spans.
func servedLayers(name string, m *measured, served []serverSpan, before, after map[string]float64, gateway bool, out map[string]float64) ([]span, error) {
	byRID := map[string]*[2]*serverSpan{} // [gateway, backend]
	gwSpans := 0
	for i := range served {
		sp := &served[i]
		if sp.Name == "pdegw" {
			gwSpans++
		}
		e := byRID[sp.RID]
		if e == nil {
			e = &[2]*serverSpan{}
			byRID[sp.RID] = e
		}
		if sp.Name == "pdegw" {
			e[0] = sp
		} else {
			e[1] = sp
		}
	}
	var (
		spans                                   []span
		clientSelf, hop, queue, solve, overhead []float64
		ttff, firstFrame, streamHop, gaps       []float64
	)
	stream := name == "stream"
	for _, s := range m.rec.samples {
		e := byRID[s.RID]
		if e == nil || e[1] == nil || (gateway && e[0] == nil) {
			return nil, fmt.Errorf("no server span for request %s", s.RID)
		}
		gw, be := e[0], e[1]
		cid := s.RID + "/client"
		spans = append(spans, span{ID: cid, Name: "client", RID: s.RID, Start: s.Start, End: s.End})
		outer := be
		beParent := cid
		if gw != nil {
			outer = gw
			beParent = s.RID + "/pdegw"
			spans = append(spans, span{ID: beParent, Name: "pdegw", Parent: cid, RID: s.RID, Start: gw.Start, End: gw.End})
			hop = append(hop, float64((gw.End-gw.Start)-(be.End-be.Start))/1e6)
		}
		spans = append(spans, span{ID: s.RID + "/" + be.Name, Name: be.Name, Parent: beParent, RID: s.RID, Start: be.Start, End: be.End})
		clientSelf = append(clientSelf, float64((s.End-s.Start)-(outer.End-outer.Start))/1e6)
		queue = append(queue, s.Queue*1e3)
		solve = append(solve, s.Solve*1e3)
		overhead = append(overhead, float64(be.End-be.Start)/1e6-(s.Queue+s.Solve)*1e3)
		if stream {
			t := float64(s.FirstLine-s.Start) / 1e6
			f := float64(be.FirstWrite-be.Start) / 1e6
			ttff = append(ttff, t)
			firstFrame = append(firstFrame, f)
			if gw != nil {
				streamHop = append(streamHop, t-f)
			}
			// Lines are the frames then the summary.
			for i := 1; i < len(s.Lines)-1; i++ {
				gaps = append(gaps, float64(s.Lines[i]-s.Lines[i-1])/1e6)
			}
		}
	}
	med := func(v []float64) float64 { return quantile(v, 0.5) }
	out["client.self_ms"] = med(clientSelf)
	out["serve.queue_ms"] = med(queue)
	out["serve.solve_ms"] = med(solve)
	out["serve.overhead_ms"] = med(overhead)
	sum := out["client.self_ms"] + out["serve.queue_ms"] + out["serve.solve_ms"] + out["serve.overhead_ms"]
	if gateway {
		out["cluster.hop_ms"] = med(hop)
		sum += out["cluster.hop_ms"]
	}
	if stream {
		out["client.ttff_ms"] = med(ttff)
		out["serve.first_frame_ms"] = med(firstFrame)
		out["serve.frame_gap_ms"] = med(gaps)
		if gateway {
			out["cluster.stream_hop_ms"] = med(streamHop)
		}
	}
	lat := med(latencies(m.rec.samples))
	cov := sum / lat
	fmt.Fprintf(os.Stderr, "perfbench: %s: layer self times sum to %.4g ms of %.4g ms traced p50 latency (%.3f)\n", name, sum, lat, cov)
	if cov < 1-coverageTol || cov > 1+coverageTol {
		return nil, fmt.Errorf("layer self times cover %.3f of the traced latency, outside 1±%g", cov, coverageTol)
	}

	delta := func(k string) float64 { return after[k] - before[k] }
	ops := float64(len(m.rec.samples))
	if n := delta("pdegw_batch_size_count"); n > 0 {
		out["cluster.batch_size_mean"] = delta("pdegw_batch_size_sum") / n
	} else if gateway && !stream {
		// A gateway without a batcher makes one upstream call per request.
		out["cluster.batch_size_mean"] = float64(gwSpans) / float64(len(served)-gwSpans)
	}
	hits, warm, miss := delta("pdeserve_cache_hits_total"), delta("pdeserve_cache_warm_hits_total"), delta("pdeserve_cache_misses_total")
	if total := hits + warm + miss; total > 0 {
		out["cache.hit_ratio"] = hits / total
		out["cache.warm_ratio"] = warm / total
		out["cache.entries"] = after["pdeserve_cache_entries"]
	}
	if n := delta("pdeserve_analog_seeds_total"); n > 0 {
		out["analog.seed_accept_ratio"] = delta("pdeserve_analog_seeds_accepted_total") / n
	}
	if len(m.rec.gains) > 0 {
		out["analog.seed_gain"] = med(m.rec.gains)
	}
	out["runtime.alloc_kb_per_op"] = float64(m.after.TotalAlloc-m.before.TotalAlloc) / 1024 / ops
	return spans, nil
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if err := bw.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), strings.TrimSpace(path))
	return f.Close()
}
