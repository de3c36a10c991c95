package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"time"

	"lscr"
	"lscr/internal/graph"
)

// graphInputs generates the workload's graph, writes it to kg.nt and
// evaluates V(S,G) of every constraint instance on it (by vertex name;
// resolved to model IDs once the model exists).
type graphInputs struct {
	path            string
	cons            []*constraint
	vsNames         [][]string
	vertices, edges int
}

func (r *run) makeGraph() (*graphInputs, error) {
	in := &graphInputs{path: r.path("kg.nt")}
	g, err := writeLUBM(in.path, r.spec.universities, r.seed)
	if err != nil {
		return nil, err
	}
	in.vertices, in.edges = g.NumVertices(), g.NumEdges()
	if r.spec.varied {
		in.cons = variedInstances(r.rng, r.spec.universities, 400)
	} else {
		in.cons = table3Instances()
	}
	if err := in.evalAll(g); err != nil {
		return nil, err
	}
	r.note("graph LUBM-%d: %d vertices, %d edges, %d labels; %d constraint instances",
		r.spec.universities, in.vertices, in.edges, g.NumLabels(), len(in.cons))
	return in, nil
}

func (in *graphInputs) evalAll(g *graph.Graph) error {
	in.vsNames = make([][]string, len(in.cons))
	for i, c := range in.cons {
		names, err := evalVS(g, c.text("x"))
		if err != nil {
			return err
		}
		in.vsNames[i] = names
	}
	return nil
}

// model loads the benchmark's own copy of the graph and resolves V(S,G).
func (in *graphInputs) model() (*model, error) {
	f, err := os.Open(in.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := readNTriples(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, err
	}
	m.freeze()
	for i, c := range in.cons {
		if err := c.resolve(m, in.vsNames[i]); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// loadEngine boots the engine the way lscrd -kg does: lscr.Load of the
// triple file, then lscr.NewEngine with lscrd's default options.
func loadEngine(path string) (*lscr.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	kg, err := lscr.Load(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	return lscr.NewEngine(kg, lscr.Options{}), nil
}

// setupLoad boots the engine spec.setupReps times and returns the last
// engine and the median boot time.
func (r *run) setupLoad(path string) (*lscr.Engine, error) {
	var eng *lscr.Engine
	var times []float64
	for i := 0; i < r.spec.setupReps; i++ {
		eng = nil
		runtime.GC()
		start := time.Now()
		var err error
		if eng, err = loadEngine(path); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.set("setup_s", median(times), "s")
	r.note("setup: %d boots (lscr.Load + lscr.NewEngine), median %.4f s: %s", len(times), median(times), join(times))
	return eng, nil
}

func (r *run) readOnly() error {
	in, err := r.makeGraph()
	if err != nil {
		return err
	}
	r.phase("inputs")
	runtime.GC()
	eng, err := r.setupLoad(in.path)
	if err != nil {
		return err
	}
	r.set("heap_mb", liveHeapMB(), "MB")
	r.phase("set-up")
	m, err := in.model()
	if err != nil {
		return err
	}
	reqs, err := genRequests(r.seed, m, in.cons, genConfig{n: r.spec.requests, distinctTexts: r.spec.varied})
	if err != nil {
		return err
	}
	r.noteMix(reqs)
	r.phase("requests")
	svc, err := startService(eng, r.spec.readers)
	if err != nil {
		return err
	}
	defer svc.close()
	// Warm-up: one second walking the request list backwards from its
	// end, so the measured window starts on requests it has not sent.
	closedLoop(svc.cl, reqs, r.spec.readers, time.Now().Add(time.Second), -1)

	c0 := eng.CacheStats()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	per := closedLoop(svc.cl, reqs, r.spec.readers, start.Add(time.Duration(r.seconds*float64(time.Second))), 1)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	c1 := eng.CacheStats()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.queryMetrics(all, start, time.Duration(r.seconds*float64(time.Second)))
	r.note("constraint cache: %d hits, %d misses in the window", c1.Hits-c0.Hits, c1.Misses-c0.Misses)
	r.note("gc: %d cycles, %.3f ms pause in the window", ms1.NumGC-ms0.NumGC, float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)

	r.phase("window")
	ck := newChecker(m)
	for _, s := range all {
		r.checkSample(ck, reqs, s)
	}
	r.phase("checks")
	return nil
}

// nSlices is the number of equal parts a measured window is split into.
// query_qps and query_p50_ms are medians over the parts, so a burst of
// interference from outside the process moves them only when it covers
// most of the window.
const nSlices = 10

// queryMetrics reports the closed-loop figures of a window that started
// at start and lasted window. query_p99_ms is the median of the p99s of
// equal groups of slices, with as many groups (1, 2, 5 or nSlices) as
// leave each group at least about 1200 samples, so at least ten lie
// beyond its p99.
func (r *run) queryMetrics(all []sample, start time.Time, window time.Duration) {
	part := window / nSlices
	per := make([][]float64, nSlices)
	var lat []float64
	for _, s := range all {
		if s.err != nil {
			continue
		}
		i := min(max(int(s.recv.Sub(start)/part), 0), nSlices-1)
		per[i] = append(per[i], ms(s.latency()))
		lat = append(lat, ms(s.latency()))
	}
	var byAnswer [2][]float64 // latencies of false and true answers
	for _, s := range all {
		if s.err == nil && s.resp.Reachable {
			byAnswer[1] = append(byAnswer[1], ms(s.latency()))
		} else if s.err == nil {
			byAnswer[0] = append(byAnswer[0], ms(s.latency()))
		}
	}
	for i, name := range []string{"false", "true"} {
		xs := byAnswer[i]
		r.note("queries answered %-5s %5d, latency p10/p25/p50/p75/p90 %.4g %.4g %.4g %.4g %.4g ms", name, len(xs),
			quantile(xs, 0.1), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 0.9))
	}
	var qps, p50s, p99s []float64
	for _, xs := range per {
		qps = append(qps, float64(len(xs))/part.Seconds())
		p50s = append(p50s, quantile(xs, 0.5))
	}
	groups := 1
	for _, g := range []int{2, 5, nSlices} { // divisors of nSlices, so groups are equal
		if len(lat)/g >= 1200 {
			groups = g
		}
	}
	minBeyond := len(lat)
	for g := 0; g < groups; g++ {
		var xs []float64
		for i := g * nSlices / groups; i < (g+1)*nSlices/groups; i++ {
			xs = append(xs, per[i]...)
		}
		p99s = append(p99s, quantile(xs, 0.99))
		minBeyond = min(minBeyond, beyond(xs, 0.99))
	}
	r.set("query_qps", median(qps), "1/s")
	r.set("query_p50_ms", median(p50s), "ms")
	r.set("query_p99_ms", median(p99s), "ms")
	r.note("queries: %d completed in %.3f s (%.1f/s overall, p50 %.4f ms, p99 %.4f ms over all); per %.1f s slice qps %s",
		len(lat), window.Seconds(), float64(len(lat))/window.Seconds(), quantile(lat, 0.5), quantile(lat, 0.99), part.Seconds(), join(round(qps)))
	r.note("p99 is the median of %d group p99s (%s ms), each group with at least %d samples beyond its p99", groups, join(round(p99s)), minBeyond)
	if minBeyond < 10 {
		r.note("WARNING: fewer than ten samples beyond p99; lengthen -seconds")
	}
}

// round trims figures for the report.
func round(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.4g", x)
	}
	return out
}

// noteMix reports the generated request mix.
func (r *run) noteMix(reqs []request) {
	var trues, wit, conj int
	var buckets [3]int
	texts := map[string]bool{}
	tmpl := make([]int, len(templates))
	for _, q := range reqs {
		if q.want {
			trues++
		}
		if q.wire.Witness {
			wit++
		}
		if len(q.cons) > 1 {
			conj++
		}
		buckets[q.bucket]++
		texts[q.wire.Constraint+fmt.Sprint(q.wire.Constraints)] = true
		for _, c := range q.cons {
			tmpl[c.tmpl]++
		}
	}
	r.note("requests: %d (%d true, %d false), %d ask a witness, %d conjunctive, label buckets %v, %d distinct constraint texts, template uses S1..S5 %v",
		len(reqs), trues, len(reqs)-trues, wit, conj, buckets, len(texts), tmpl)
}
