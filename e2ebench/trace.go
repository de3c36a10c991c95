package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"lscr"
	"lscr/api"
	"lscr/internal/graph"
	"lscr/internal/labelset"
	core "lscr/internal/lscr"
	"lscr/internal/pattern"
	"lscr/internal/rdf"
	"lscr/internal/segment"
	"lscr/internal/sparql"
)

// perLayer lists the traced run's metrics; every one is reported on
// every workload, as 0 where the layer has no work (the write path on
// the read-only workloads).
var perLayer = []struct{ name, unit string }{
	{"client.overhead_ms", "ms"}, {"server.handler_ms", "ms"}, {"server.self_ms", "ms"},
	{"server.bytes_per_query", "B"},
	{"engine.query_p50_ms", "ms"}, {"engine.query_p99_ms", "ms"}, {"engine.self_ms", "ms"},
	{"engine.allocs_per_query", "count"}, {"engine.bytes_per_query", "B"},
	{"engine.apply_ms", "ms"}, {"engine.compact_s", "s"}, {"engine.compactions", "count"}, {"engine.open_s", "s"},
	{"qcache.hit_ratio", "ratio"}, {"qcache.lookups", "count"}, {"qcache.warm_speedup", "ratio"},
	{"engine.read_retention", "ratio"},
	{"sparql.compile_ms", "ms"}, {"pattern.match_ms", "ms"}, {"pattern.vs_size", "count"},
	{"lscr.search_p50_ms.ins", "ms"}, {"lscr.search_p50_ms.uis", "ms"}, {"lscr.search_p50_ms.uisstar", "ms"}, {"lscr.search_p50_ms.conj", "ms"},
	{"lscr.search_p99_ms.ins", "ms"}, {"lscr.search_p99_ms.uis", "ms"}, {"lscr.search_p99_ms.uisstar", "ms"}, {"lscr.search_p99_ms.conj", "ms"},
	{"lscr.passed_vertices", "count"}, {"lscr.tree_nodes", "count"}, {"lscr.witness_ms", "ms"},
	{"lscr.index_build_s", "s"}, {"lscr.index_mb", "MB"}, {"lscr.maintain_ms", "ms"},
	{"graph.delta_commit_ms", "ms"}, {"graph.overlay_ops", "count"},
	{"rdf.load_s", "s"},
	{"segment.open_ms", "ms"}, {"segment.wal_bytes_per_op", "B"}, {"segment.seal_bytes", "B"},
	{"runtime.gc_pause_ms", "ms"}, {"runtime.gc_cycles", "count"},
	{"trace.overhead_ms", "ms"},
}

var algos = []string{"ins", "uis", "uisstar", "conj"}

// span is one timed call into a module, kept in memory and written out
// at the end of the traced run.
type span struct {
	Layer string `json:"layer"`
	Req   int    `json:"req"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(layer string, req int, start time.Time, d time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, span{layer, req, start.Sub(t.t0).Nanoseconds(), d.Nanoseconds()})
	t.mu.Unlock()
}

// timed runs f as one span and returns its duration.
func (t *tracer) timed(layer string, req int, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.add(layer, req, start, d)
	return d
}

func (t *tracer) writeOut(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		enc.Encode(s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanHandler records the handler's ServeHTTP as a server span.
type spanHandler struct {
	h  http.Handler
	tr *tracer
}

func (s spanHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	s.h.ServeHTTP(w, req)
	s.tr.add("server", -1, start, time.Since(start))
}

func (r *run) traced() error {
	tr := &tracer{t0: time.Now()}
	var err error
	if r.spec.write {
		err = r.tracedWrite(tr)
	} else {
		err = r.tracedRead(tr)
	}
	if err != nil {
		return err
	}
	for _, p := range perLayer {
		if _, ok := r.metrics[p.name]; !ok {
			r.set(p.name, 0, p.unit)
			r.note("%s: no work of this layer on this workload, reported as 0", p.name)
		}
	}
	out := filepath.Join(filepath.Dir(r.dir), "..", "spans", fmt.Sprintf("%s-seed%d.jsonl", r.spec.name, r.seed))
	if err := tr.writeOut(out); err != nil {
		return err
	}
	r.note("spans: %d written to %s", len(tr.spans), out)
	return nil
}

// timeRDF reports rdf.load_s: parsing the triple file into a graph.
func (r *run) timeRDF(path string, reps int) (*graph.Graph, error) {
	var g *graph.Graph
	var times []float64
	for i := 0; i < reps; i++ {
		g = nil
		runtime.GC()
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		g, err = rdf.Load(bufio.NewReader(f))
		times = append(times, time.Since(start).Seconds())
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	r.set("rdf.load_s", median(times), "s")
	return g, nil
}

// timeIndex reports lscr.index_build_s and lscr.index_mb and returns the
// index, which is the engine's: same graph, same default parameters.
func (r *run) timeIndex(g *graph.Graph, reps int) *core.LocalIndex {
	var idx *core.LocalIndex
	var times []float64
	for i := 0; i < reps; i++ {
		idx = nil
		runtime.GC()
		start := time.Now()
		idx = core.NewLocalIndex(g, core.IndexParams{})
		times = append(times, time.Since(start).Seconds())
	}
	r.set("lscr.index_build_s", median(times), "s")
	r.set("lscr.index_mb", float64(idx.SizeBytes())/(1<<20), "MB")
	return idx
}

// window runs one closed-loop window and returns its samples. With a
// tracer it records a client span for every call; svc's handler then
// records the server spans.
func window(svc *service, reqs []request, readers int, d time.Duration, tr *tracer) []sample {
	var all []sample
	for _, s := range closedLoop(svc.cl, reqs, readers, time.Now().Add(d), 1) {
		all = append(all, s...)
	}
	if tr != nil {
		for _, x := range all {
			tr.add("client", x.req, x.sent, x.latency())
		}
	}
	return all
}

func p50(all []sample) float64 {
	var lat []float64
	for _, s := range all {
		lat = append(lat, ms(s.latency()))
	}
	return quantile(lat, 0.5)
}

// windows runs the untraced and the traced closed-loop windows of the
// traced run and reports GC, cache and tracing-overhead figures from
// them. The untraced window is the reference the overhead is taken
// against; spans in the traced window come from the benchmark's own
// code around client.Query and the handler's ServeHTTP.
func (r *run) windows(tr *tracer, eng *lscr.Engine, reqs []request, ck *checker, half time.Duration) (qps float64, err error) {
	svc, err := startService(eng, r.spec.readers)
	if err != nil {
		return 0, err
	}
	closedLoop(svc.cl, reqs, r.spec.readers, time.Now().Add(time.Second), -1)
	c0 := eng.CacheStats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := window(svc, reqs, r.spec.readers, half, nil)
	runtime.ReadMemStats(&m1)
	c1 := eng.CacheStats()
	svc.close()
	r.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	r.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	if !r.spec.write {
		hits, lookups := c1.Hits-c0.Hits, c1.Hits-c0.Hits+c1.Misses-c0.Misses
		r.set("qcache.hit_ratio", float64(hits)/float64(max(lookups, 1)), "ratio")
		r.set("qcache.lookups", float64(lookups), "count")
	}

	traced, err := startService(eng, r.spec.readers)
	if err != nil {
		return 0, err
	}
	traced.srv.Handler = spanHandler{traced.handler, tr}
	spans := window(traced, reqs, r.spec.readers, half, tr)
	traced.close()
	r.set("trace.overhead_ms", p50(spans)-p50(plain), "ms")
	r.note("windows: untraced p50 %.4f ms over %d samples, traced p50 %.4f ms over %d samples",
		p50(plain), len(plain), p50(spans), len(spans))
	if ck != nil {
		for _, s := range append(plain, spans...) {
			r.checkSample(ck, reqs, s)
		}
	}
	return float64(len(plain)) / half.Seconds(), nil
}

func (r *run) tracedRead(tr *tracer) error {
	in, err := r.makeGraph()
	if err != nil {
		return err
	}
	reps := min(r.spec.setupReps, 3)
	g, err := r.timeRDF(in.path, reps)
	if err != nil {
		return err
	}
	idx := r.timeIndex(g, reps)
	eng := lscr.NewEngine(lscr.FromGraph(g), lscr.Options{})
	m, err := in.model()
	if err != nil {
		return err
	}
	reqs, err := genRequests(r.seed, m, in.cons, genConfig{n: r.spec.requests, distinctTexts: r.spec.varied})
	if err != nil {
		return err
	}
	if _, err := r.windows(tr, eng, reqs, newChecker(m), r.quarter()); err != nil {
		return err
	}
	return r.replay(tr, eng, g, idx, m, reqs, 2*r.quarter())
}

// variant renders q's constraint texts with a focus variable of its
// own, so that a layer replayed after another does not find the text
// in the constraint cache when the workload gives every request its
// own text. Workloads with shared texts keep them.
func (r *run) variant(q request, i int, layer string) api.QueryRequest {
	if !r.spec.varied {
		return q.wire
	}
	return q.withFocus(fmt.Sprintf("x%d%s", i, layer))
}

// replayed is one request's timings across the replay passes.
type replayed struct {
	want, single, ins               bool
	compile, match, search, witness time.Duration
	client, handler, engine         time.Duration
	miss                            bool
}

// replay sends the requests one at a time through one layer at a time:
// first the engine's parts called directly (compile, V(S,G), the four
// search algorithms, witness), until budget runs out; then the same
// requests through the typed client, the handler in-process and
// Engine.Query. It reports the per-layer metrics, checks every layer's
// answer against the oracle and asserts that the four algorithms agree.
func (r *run) replay(tr *tracer, eng *lscr.Engine, g *graph.Graph, idx *core.LocalIndex, m *model, reqs []request, budget time.Duration) error {
	ck := newChecker(m)
	sr := newSearcher(m)
	ctx := context.Background()
	var (
		compileT, matchT, vsSize, witnessT, passed, tree []float64
		search                                           = map[string][]float64{}
		recs                                             []replayed
		err                                              error
	)
	deadline := time.Now().Add(budget)
	for i := 0; i < len(reqs) && time.Now().Before(deadline); i++ {
		q := reqs[i]
		rp := replayed{want: sr.reach(q.src, q.dst, q.L, vsOf(q)), single: len(q.cons) == 1}
		var cons []*pattern.Constraint
		var vss [][]graph.VertexID
		for _, c := range q.cons {
			var pc *pattern.Constraint
			var sat bool
			d := tr.timed("sparql", i, func() {
				var pq *sparql.Query
				if pq, err = sparql.Parse(c.text("x")); err == nil {
					pc, sat, err = pq.Compile(g)
				}
			})
			rp.compile += d
			if err != nil || !sat {
				return fmt.Errorf("request %d: constraint %q does not compile (sat %v): %v", i, c.text("x"), sat, err)
			}
			var vs []graph.VertexID
			d = tr.timed("pattern", i, func() {
				var mt *pattern.Matcher
				if mt, err = pattern.NewMatcher(g, pc); err == nil {
					vs = mt.MatchAll()
				}
			})
			rp.match += d
			if err != nil {
				return err
			}
			cons, vss = append(cons, pc), append(vss, vs)
			vsSize = append(vsSize, float64(len(vs)))
		}
		compileT = append(compileT, ms(rp.compile)/float64(len(q.cons)))
		matchT = append(matchT, ms(rp.match)/float64(len(q.cons)))

		var L labelset.Set
		for _, name := range q.wire.Labels {
			l, _ := g.LabelByName(name)
			L = L.Add(l)
		}
		cq := core.Query{Source: g.Vertex(q.wire.Source), Target: g.Vertex(q.wire.Target), Labels: L}
		mq := core.MultiQuery{Source: cq.Source, Target: cq.Target, Labels: L, Constraints: cons}
		type step struct {
			algo string
			f    func() (bool, core.Stats, error)
		}
		steps := []step{{"conj", func() (bool, core.Stats, error) { return core.UISMulti(g, mq) }}}
		if rp.single {
			cq.Constraint = cons[0]
			steps = append([]step{
				{"ins", func() (bool, core.Stats, error) { return core.INS(g, idx, cq, vss[0]) }},
				{"uis", func() (bool, core.Stats, error) { return core.UIS(g, cq) }},
				{"uisstar", func() (bool, core.Stats, error) { return core.UISStar(g, cq, vss[0]) }},
			}, steps...)
		}
		var insStats core.Stats
		for _, s := range steps {
			var ok bool
			var st core.Stats
			d := tr.timed("lscr."+s.algo, i, func() { ok, st, err = s.f() })
			if err != nil {
				return fmt.Errorf("request %d: %s: %v", i, s.algo, err)
			}
			search[s.algo] = append(search[s.algo], ms(d))
			if ok != rp.want {
				r.wrong("replay request %d: %s answers %v, oracle says %v", i, s.algo, ok, rp.want)
			}
			if s.algo == "ins" {
				insStats, rp.ins = st, ok
				passed = append(passed, float64(st.PassedVertices))
				tree = append(tree, float64(st.SearchTreeNodes))
			}
			if s.algo == "ins" || !rp.single {
				rp.search = d // the algorithm Engine.Query runs by default
			}
		}
		if rp.ins {
			var w *core.Witness
			var found bool
			rp.witness = tr.timed("lscr.witness", i, func() {
				w, found = core.FindWitness(g, cq.Source, cq.Target, insStats.Satisfying, L)
			})
			witnessT = append(witnessT, ms(rp.witness))
			if !found {
				r.wrong("replay request %d: FindWitness found no witness for a true answer", i)
			} else {
				ww := witness{satisfiedBy: []string{g.VertexName(insStats.Satisfying)}}
				for _, h := range w.Hops {
					ww.hops = append(ww.hops, [3]string{g.VertexName(h.From), g.LabelName(h.Label), g.VertexName(h.To)})
				}
				if err := m.checkWitness(q.wire.Source, q.wire.Target, q.wire.Labels, q.vsets(), ww); err != nil {
					r.wrong("replay request %d: FindWitness: %v", i, err)
				}
			}
		}
		recs = append(recs, rp)
	}

	check := func(layer string, i int, resp api.QueryResponse, err error) {
		c := r.op("replay")
		c.attempted++
		if err != nil {
			c.failed++
			r.wrong("replay %s request %d failed: %v", layer, i, err)
			return
		}
		if why := ck.verdict(reqs[i], resp, recs[i].want, reqs[i].vsets()); why != "" {
			r.wrong("replay %s request %d: %s", layer, i, why)
		}
	}
	// Client: loopback round trips through the typed client.
	svc, err := startService(eng, 1)
	if err != nil {
		return err
	}
	for i := range recs {
		wc := r.variant(reqs[i], i, "c")
		var resp api.QueryResponse
		recs[i].client = tr.timed("client", i, func() { resp, err = svc.cl.Query(ctx, wc) })
		check("client", i, resp, err)
	}
	svc.close()
	// Server: the handler's ServeHTTP in-process.
	handler := lscrdHandler(eng)
	var bytesQ []float64
	for i := range recs {
		body, _ := json.Marshal(r.variant(reqs[i], i, "h"))
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		recs[i].handler = tr.timed("server", i, func() { handler.ServeHTTP(rec, hreq) })
		var resp api.QueryResponse
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		} else {
			err = json.Unmarshal(rec.Body.Bytes(), &resp)
		}
		check("server", i, resp, err)
		bytesQ = append(bytesQ, float64(len(body)+rec.Body.Len()))
	}
	// Engine: Engine.Query in-process, with its allocations, twice per
	// request: first with a constraint text of its own (cold: the cache
	// misses and the engine compiles), then the same text again (warm:
	// the cache hits). The pass that matches the workload — cold when
	// every request has its own text, warm otherwise — gives the engine
	// metrics; the two together give the cache's speedup.
	var allocs, allocB, coldT, warmT []float64
	for i := range recs {
		req, err := reqs[i].withFocus(fmt.Sprintf("x%dw", i)).ToRequest()
		if err != nil {
			return err
		}
		for _, cold := range []bool{true, false} {
			var resp lscr.Response
			var ms0, ms1 runtime.MemStats
			misses := eng.CacheStats().Misses
			runtime.ReadMemStats(&ms0)
			d := tr.timed("engine", i, func() { resp, err = eng.Query(ctx, req) })
			runtime.ReadMemStats(&ms1)
			check("engine", i, api.FromResponse(resp), err)
			if cold {
				coldT = append(coldT, ms(d))
			} else {
				warmT = append(warmT, ms(d))
			}
			if cold != r.spec.varied {
				continue
			}
			recs[i].engine = d
			recs[i].miss = eng.CacheStats().Misses > misses
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
			allocB = append(allocB, float64(ms1.TotalAlloc-ms0.TotalAlloc))
		}
	}
	r.set("qcache.warm_speedup", median(coldT)/median(warmT), "ratio")

	// Self times: each layer's span minus its child spans, per request.
	var clientOv, handlerT, serverSelf, engineT, engineSelf []float64
	for i, rp := range recs {
		child := rp.search
		if rp.miss {
			child += rp.compile
			if rp.single {
				child += rp.match
			}
		}
		if reqs[i].wire.Witness && rp.ins {
			child += rp.witness
		}
		clientOv = append(clientOv, ms(rp.client-rp.handler))
		handlerT = append(handlerT, ms(rp.handler))
		serverSelf = append(serverSelf, ms(rp.handler-rp.engine))
		engineT = append(engineT, ms(rp.engine))
		engineSelf = append(engineSelf, ms(rp.engine-child))
	}
	r.set("client.overhead_ms", median(clientOv), "ms")
	r.set("server.handler_ms", median(handlerT), "ms")
	r.set("server.self_ms", median(serverSelf), "ms")
	r.set("server.bytes_per_query", mean(bytesQ), "B")
	r.set("engine.query_p50_ms", quantile(engineT, 0.5), "ms")
	r.set("engine.query_p99_ms", quantile(engineT, 0.99), "ms")
	r.set("engine.self_ms", median(engineSelf), "ms")
	r.set("engine.allocs_per_query", mean(allocs), "count")
	r.set("engine.bytes_per_query", mean(allocB), "B")
	r.set("sparql.compile_ms", median(compileT), "ms")
	r.set("pattern.match_ms", median(matchT), "ms")
	r.set("pattern.vs_size", mean(vsSize), "count")
	for _, a := range algos {
		r.set("lscr.search_p50_ms."+a, quantile(search[a], 0.5), "ms")
		r.set("lscr.search_p99_ms."+a, quantile(search[a], 0.99), "ms")
	}
	r.set("lscr.passed_vertices", mean(passed), "count")
	r.set("lscr.tree_nodes", mean(tree), "count")
	r.set("lscr.witness_ms", median(witnessT), "ms")
	r.note("replay: %d of %d requests through every layer (%d single-constraint searched by all four algorithms, %d witnesses); self times are medians of per-request differences; client round trip p50 %.4f ms",
		len(recs), len(reqs), len(search["ins"]), len(witnessT), median(append([]float64(nil), func() []float64 {
			var c []float64
			for _, rp := range recs {
				c = append(c, ms(rp.client))
			}
			return c
		}()...)))
	return nil
}

// vsOf returns V(S,G) of each of q's constraints.
func vsOf(q request) [][]int32 {
	out := make([][]int32, len(q.cons))
	for i, c := range q.cons {
		out[i] = c.vs
	}
	return out
}

// tracedWrite is the traced run of lubm-write-mix.
func (r *run) tracedWrite(tr *tracer) error {
	wi, m, err := r.makeWriteInputs()
	if err != nil {
		return err
	}
	if _, err := r.timeRDF(wi.path, 3); err != nil {
		return err
	}
	store2 := r.path("store-replay")
	if err := copyDir(r.storeDir(), store2); err != nil {
		return err
	}
	// segment.OpenDir and lscr.Open of the store as set up.
	var segT []float64
	for i := 0; i < r.spec.setupReps; i++ {
		start := time.Now()
		seg, err := segment.OpenDir(r.storeDir())
		if err != nil {
			return err
		}
		segT = append(segT, ms(time.Since(start)))
		seg.Close()
	}
	r.set("segment.open_ms", median(segT), "ms")
	eng, times, err := r.setupOpen()
	if err != nil {
		return err
	}
	delete(r.metrics, "setup_s")
	r.set("engine.open_s", median(times), "s")
	reqs, err := r.tailState(wi, m)
	if err != nil {
		eng.Close()
		return err
	}
	if err := r.replayWrites(tr, store2, wi.batches, reqs); err != nil {
		eng.Close()
		return err
	}

	// The closed-loop windows, with the open-loop writer running, then
	// the request replay on the final state.
	// The reader alone, then the same reader with the open-loop writer
	// posting what fits in the warm-up and the two windows: their
	// throughput ratio is the read retention under writes.
	alone, err := startService(eng, r.spec.readers)
	if err != nil {
		eng.Close()
		return err
	}
	closedLoop(alone.cl, reqs, r.spec.readers, time.Now().Add(time.Second), -1)
	readOnly := float64(len(window(alone, reqs, r.spec.readers, r.quarter(), nil))) / r.quarter().Seconds()
	alone.close()
	posted := wi.batches[:min(len(wi.batches), int((time.Second+2*r.quarter()).Seconds()*batchRate))]
	stopWriter := r.startWriter(eng, posted)
	mixed, err := r.windows(tr, eng, reqs, nil, r.quarter())
	r.set("engine.read_retention", mixed/readOnly, "ratio")
	r.note("read retention: %.1f reads/s with the writer, %.1f alone", mixed, readOnly)
	if werr := stopWriter(); err == nil {
		err = werr
	}
	if err != nil {
		eng.Close()
		return err
	}
	defer eng.Close()
	for _, b := range posted {
		if err := m.apply(b); err != nil {
			return err
		}
	}
	m.freeze()
	cs, err := instancesAt(m)
	if err != nil {
		return err
	}
	// Requests refer to S1–S5 by template; point them at the final V(S,G).
	for i := range reqs {
		for j, c := range reqs[i].cons {
			reqs[i].cons[j] = cs[c.tmpl]
		}
	}
	if _, err := eng.Compact(context.Background()); err != nil {
		return err
	}
	g := eng.KG().Graph()
	idx := r.timeIndex(g, 3)
	return r.replay(tr, eng, g, idx, m, reqs, 2*r.quarter())
}

// quarter is a quarter of the measured window: the traced run spends one
// on each closed-loop window and two on the layer replay.
func (r *run) quarter() time.Duration { return time.Duration(r.seconds / 4 * float64(time.Second)) }

// startWriter posts all batches to the engine over the loopback service
// at the workload's rate, in the background, and returns a function
// that waits for it.
func (r *run) startWriter(eng *lscr.Engine, batches [][]api.Mutation) func() error {
	svc, err := startService(eng, 1)
	if err != nil {
		return func() error { return err }
	}
	done := make(chan error, 1)
	go func() {
		start := time.Now()
		var first error
		for k, b := range batches {
			time.Sleep(time.Until(start.Add(time.Duration(float64(k) / batchRate * float64(time.Second)))))
			c := r.opSafe("mutate")
			if _, err := svc.cl.Mutate(context.Background(), b); err != nil {
				c(true)
				if first == nil {
					first = err
				}
			} else {
				c(false)
			}
		}
		svc.close()
		done <- first
	}()
	return func() error { return <-done }
}

// replayWrites applies the recorded batches in-process, one at a time,
// to a copy of the store, with reads in between, and reports the write
// path's per-layer metrics. A parallel chain replays the same batches
// through graph.Delta and LocalIndex.ApplyMutations directly.
func (r *run) replayWrites(tr *tracer, dir string, batches [][]api.Mutation, reqs []request) error {
	ctx := context.Background()
	eng, err := lscr.Open(dir, lscr.Options{})
	if err != nil {
		return err
	}
	defer eng.Close()

	// graph.Delta + LocalIndex.ApplyMutations, compacting at lscr's
	// default threshold as the engine does.
	g := eng.KG().Graph().Compact()
	idx := core.NewLocalIndex(g, core.IndexParams{})
	var deltaT, maintT []float64
	for k, b := range batches {
		var g2 *graph.Graph
		var d *graph.Delta
		dd := tr.timed("graph.delta", k, func() {
			d = graph.NewDelta(g)
			for _, mu := range b {
				if err = stageOp(d, mu); err != nil {
					return
				}
			}
			g2, err = d.Commit()
		})
		if err != nil {
			return fmt.Errorf("batch %d: %v", k, err)
		}
		md := tr.timed("lscr.maintain", k, func() { idx, _ = idx.ApplyMutations(g2, d.EdgeOps()) })
		deltaT, maintT = append(deltaT, ms(dd)), append(maintT, ms(md))
		if g2.OverlaySize() >= lscr.DefaultCompactAfter {
			g2 = g2.Compact()
			idx = core.NewLocalIndex(g2, core.IndexParams{})
		}
		g = g2
	}
	r.set("graph.delta_commit_ms", median(deltaT), "ms")
	r.set("lscr.maintain_ms", median(maintT), "ms")

	// Engine.Apply on the store copy, reads in between.
	watch := watchDir(dir, 5*time.Millisecond)
	e0 := eng.Epoch()
	var applyT, compactT, overlay []float64
	var hits, lookups int64
	var walBytes, walOps int
	readsPerBatch := 10
	for k, b := range batches {
		cs := eng.CacheStats()
		hits, lookups = hits+cs.Hits, lookups+cs.Hits+cs.Misses
		w0 := eng.Durability().WALBytes
		c0 := eng.Epoch().Compactions
		var res lscr.ApplyResult
		d := tr.timed("engine.apply", k, func() { res, err = eng.Apply(ctx, api.ToEngineMutations(b)) })
		if err != nil {
			return fmt.Errorf("apply batch %d: %v", k, err)
		}
		applyT = append(applyT, ms(d))
		if w1 := eng.Durability().WALBytes; w1 > w0 {
			walBytes += int(w1 - w0)
			walOps += res.Added + res.Deleted
		}
		if res.CompactionStarted {
			// The compaction runs in the background; its end shows as the
			// completed-compaction count moving. The replay waits for it,
			// so each compaction is timed alone.
			start := time.Now()
			for eng.Epoch().Compactions == c0 {
				time.Sleep(200 * time.Microsecond)
			}
			compactT = append(compactT, time.Since(start).Seconds())
			tr.add("engine.compact", k, start, time.Since(start))
		}
		for j := 0; j < readsPerBatch; j++ {
			q := reqs[(k*readsPerBatch+j)%len(reqs)]
			overlay = append(overlay, float64(eng.Epoch().OverlayOps))
			req, _ := q.wire.ToRequest()
			if _, err := eng.Query(ctx, req); err != nil {
				return fmt.Errorf("read after batch %d: %v", k, err)
			}
		}
	}
	cs := eng.CacheStats()
	hits, lookups = hits+cs.Hits, lookups+cs.Hits+cs.Misses
	watch.finish()
	r.set("engine.apply_ms", median(applyT), "ms")
	r.set("engine.compact_s", median(compactT), "s")
	r.set("engine.compactions", float64(eng.Epoch().Compactions-e0.Compactions), "count")
	r.set("qcache.hit_ratio", float64(hits)/float64(max(lookups, 1)), "ratio")
	r.set("qcache.lookups", float64(lookups), "count")
	r.set("graph.overlay_ops", mean(overlay), "count")
	r.set("segment.wal_bytes_per_op", float64(walBytes)/float64(max(walOps, 1)), "B")
	var sealed []float64
	for _, b := range watch.sealed {
		sealed = append(sealed, float64(b))
	}
	r.set("segment.seal_bytes", mean(sealed), "B")
	r.note("write replay: %d batches applied in-process, %d reads, %d compactions (%s s), cache %d hits of %d lookups summed over epochs",
		len(batches), len(batches)*readsPerBatch, len(compactT), join(compactT), hits, lookups)
	return nil
}

// stageOp stages one wire mutation on a delta by name, as the engine
// does.
func stageOp(d *graph.Delta, mu api.Mutation) error {
	switch lscr.MutationOp(mu.Op) {
	case lscr.OpAddEdge:
		return d.AddEdgeNames(mu.Subject, mu.Label, mu.Object)
	case lscr.OpDeleteEdge:
		s, ok1 := d.LookupVertex(mu.Subject)
		o, ok2 := d.LookupVertex(mu.Object)
		l, ok3 := d.LookupLabel(mu.Label)
		if !ok1 || !ok2 || !ok3 {
			return fmt.Errorf("unknown name in %v", mu)
		}
		return d.DeleteEdge(s, l, o)
	}
	return fmt.Errorf("unexpected op %q", mu.Op)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, n := range names {
		in, err := os.Open(filepath.Join(src, n))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, n))
		if err == nil {
			_, err = io.Copy(out, in)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		in.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
