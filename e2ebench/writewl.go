package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"lscr"
	"lscr/api"
	"lscr/internal/graph"
	"lscr/internal/pattern"
	"lscr/internal/sparql"
)

// Write-mix shape (see README.md, "Inputs").
const (
	batchOps   = 64 // edge operations per /v1/mutate batch
	batchRate  = 10 // batches per second, open loop
	tailBatchN = 12 // batches left in the WAL tail before set-up
	addShare   = 2.0 / 3
	// pinnedVS: edges out of the vertices of a V(S,G) this small are
	// never deleted (see genBatches).
	pinnedVS = 64
)

// genBatches draws n mutation batches against the model's current
// state, about two thirds adding edges and one third deleting present
// ones. An added edge copies the label of a present edge and takes its
// object from another present edge with that label, so it stays within
// LUBM's vocabulary. RDFS vocabulary edges (rdf:type and the like) are
// never touched, and edges out of the vertices in pinned are only ever
// copied, never deleted: these are the satisfying vertices of the
// constraints whose V(S,G) is a few dozen vertices or fewer (S5 has
// one), which random deletes would otherwise empty on some seeds and not
// on others, turning a fifth of the requests into instant false answers
// partway through the run. The model itself is not changed.
func genBatches(rng *rand.Rand, m *model, pinned map[int32]bool, n int) [][]api.Mutation {
	count := make(map[edgeKey]int32, len(m.count))
	var pool []edgeKey
	byLabel := map[uint8][]edgeKey{}
	for _, k := range m.keys() {
		s, l, _ := k.parts()
		if strings.HasPrefix(m.L.name[l], "rdf") || pinned[s] {
			continue
		}
		count[k] = m.count[k]
		pool = append(pool, k)
		byLabel[l] = append(byLabel[l], k)
	}
	pos := make(map[edgeKey]int, len(pool))
	for i, k := range pool {
		pos[k] = i
	}
	mut := func(op string, k edgeKey) api.Mutation {
		s, l, o := k.parts()
		return api.Mutation{Op: op, Subject: m.V.name[s], Label: m.L.name[l], Object: m.V.name[o]}
	}
	out := make([][]api.Mutation, n)
	for b := range out {
		batch := make([]api.Mutation, 0, batchOps)
		for len(batch) < batchOps {
			if rng.Float64() < addShare {
				s, l, _ := pool[rng.Intn(len(pool))].parts()
				peers := byLabel[l]
				_, _, o := peers[rng.Intn(len(peers))].parts()
				k := mkKey(s, l, o)
				if count[k]++; count[k] == 1 {
					pos[k] = len(pool)
					pool = append(pool, k)
					byLabel[l] = append(byLabel[l], k)
				}
				batch = append(batch, mut(string(lscr.OpAddEdge), k))
				continue
			}
			i := rng.Intn(len(pool))
			k := pool[i]
			if count[k]--; count[k] == 0 {
				last := pool[len(pool)-1]
				pool[i], pos[last] = last, i
				pool = pool[:len(pool)-1]
				delete(pos, k)
				delete(count, k)
			}
			batch = append(batch, mut(string(lscr.OpDeleteEdge), k))
		}
		out[b] = batch
	}
	return out
}

// apply replays a batch on the model; it fails on a delete of an absent
// edge, which genBatches never draws.
func (m *model) apply(batch []api.Mutation) error {
	for _, mu := range batch {
		switch lscr.MutationOp(mu.Op) {
		case lscr.OpAddEdge:
			if err := m.add(mu.Subject, mu.Label, mu.Object); err != nil {
				return err
			}
		case lscr.OpDeleteEdge:
			if !m.remove(mu.Subject, mu.Label, mu.Object) {
				return fmt.Errorf("delete of absent edge %v", mu)
			}
		default:
			return fmt.Errorf("unexpected op %q", mu.Op)
		}
	}
	return nil
}

// graphOf builds a graph.Graph with the model's edges, vertex and label
// IDs equal to the model's.
func graphOf(m *model) *graph.Graph {
	b := graph.NewBuilder()
	for _, n := range m.V.name {
		b.Vertex(n)
	}
	for _, n := range m.L.name {
		b.Label(n)
	}
	for _, k := range m.keys() {
		s, l, o := k.parts()
		for c := m.count[k]; c > 0; c-- {
			b.AddEdge(graph.VertexID(s), graph.Label(l), graph.VertexID(o))
		}
	}
	return b.Build()
}

// instancesAt returns S1–S5 with V(S,G) evaluated by pattern.MatchAll on
// the graph rebuilt from the model.
func instancesAt(m *model) ([]*constraint, error) {
	g := graphOf(m)
	cs := table3Instances()
	for _, c := range cs {
		q, err := sparql.Parse(c.text("x"))
		if err != nil {
			return nil, err
		}
		cons, sat, err := q.Compile(g)
		if err != nil {
			return nil, err
		}
		var ids []graph.VertexID
		if sat {
			mt, err := pattern.NewMatcher(g, cons)
			if err != nil {
				return nil, err
			}
			ids = mt.MatchAll()
		}
		c.vs, c.vsSet = make([]int32, len(ids)), make(map[int32]bool, len(ids))
		for i, v := range ids {
			c.vs[i] = int32(v)
			c.vsSet[int32(v)] = true
		}
	}
	return cs, nil
}

// writeRec is one /v1/mutate call of the open-loop writer.
type writeRec struct {
	due, sent, ack time.Time
	resp           api.MutateResponse
	err            error
}

// dirWatch measures bytes written to a data directory from outside the
// engine by polling file sizes: growth of the WAL, the whole WAL when a
// rotation replaced it, and every new segment file.
type dirWatch struct {
	dir     string
	wal     os.FileInfo
	segs    map[string]bool
	walB    int64
	segB    int64
	sealed  []int64
	stopped chan struct{}
	stop    chan struct{}
}

func watchDir(dir string, every time.Duration) *dirWatch {
	w := &dirWatch{dir: dir, segs: map[string]bool{}, stop: make(chan struct{}), stopped: make(chan struct{})}
	w.poll(true)
	go func() {
		defer close(w.stopped)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				w.poll(false)
				return
			case <-t.C:
				w.poll(false)
			}
		}
	}()
	return w
}

func (w *dirWatch) poll(initial bool) {
	if fi, err := os.Stat(filepath.Join(w.dir, "wal.log")); err == nil {
		switch {
		case initial:
		case w.wal == nil || !os.SameFile(w.wal, fi):
			w.walB += fi.Size()
		default:
			w.walB += max(0, fi.Size()-w.wal.Size())
		}
		w.wal = fi
	}
	entries, _ := os.ReadDir(w.dir)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".lscrseg") || w.segs[name] {
			continue
		}
		w.segs[name] = true
		if initial {
			continue
		}
		if fi, err := e.Info(); err == nil {
			w.segB += fi.Size()
			w.sealed = append(w.sealed, fi.Size())
		}
	}
}

func (w *dirWatch) finish() {
	close(w.stop)
	<-w.stopped
}

// readRec is one closed-loop read with the state window it may have
// observed: every state from lo (batches acknowledged before it was
// sent) to hi (batches sent before its reply arrived).
type readRec struct {
	sample
	lo, hi int
}

func (r *run) storeDir() string { return r.path("store") }

// makeStore creates the persistent store from the triple file the way
// lscrd -data -kg does on first boot, commits the WAL-tail batches and
// closes it without sealing them.
func (r *run) makeStore(in *graphInputs, tail [][]api.Mutation) error {
	f, err := os.Open(in.path)
	if err != nil {
		return err
	}
	kg, err := lscr.Load(f)
	f.Close()
	if err != nil {
		return err
	}
	eng, err := lscr.Create(r.storeDir(), kg, lscr.Options{})
	if err != nil {
		return err
	}
	for _, b := range tail {
		if _, err := eng.Apply(context.Background(), api.ToEngineMutations(b)); err != nil {
			eng.Close()
			return err
		}
	}
	return eng.Close()
}

// setupOpen reopens the store spec.setupReps times, the way lscrd -data
// restarts, and returns the last engine and the median open time.
func (r *run) setupOpen() (*lscr.Engine, []float64, error) {
	var eng *lscr.Engine
	var times []float64
	for i := 0; i < r.spec.setupReps; i++ {
		if eng != nil {
			if err := eng.Close(); err != nil {
				return nil, nil, err
			}
			eng = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if eng, err = lscr.Open(r.storeDir(), lscr.Options{}); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.set("setup_s", median(times), "s")
	r.note("setup: %d opens (lscr.Open of a segment plus a %d-batch WAL tail), median %.4f s: %s",
		len(times), tailBatchN, median(times), join(times))
	return eng, times, nil
}

// writeInputs is everything the write-mix workload generates.
type writeInputs struct {
	*graphInputs
	tail, batches [][]api.Mutation
}

func (r *run) makeWriteInputs() (*writeInputs, *model, error) {
	in, err := r.makeGraph()
	if err != nil {
		return nil, nil, err
	}
	m, err := in.model()
	if err != nil {
		return nil, nil, err
	}
	n := int(r.seconds*batchRate + 0.5)
	pinned := map[int32]bool{}
	for _, c := range in.cons {
		if len(c.vs) <= pinnedVS {
			for _, v := range c.vs {
				pinned[v] = true
			}
		}
	}
	r.note("writes: edges out of %d satisfying vertices of constraints with |V(S,G)| <= %d are never deleted", len(pinned), pinnedVS)
	all := genBatches(r.rng, m, pinned, tailBatchN+n)
	wi := &writeInputs{graphInputs: in, tail: all[:tailBatchN], batches: all[tailBatchN:]}
	if err := r.makeStore(in, wi.tail); err != nil {
		return nil, nil, err
	}
	return wi, m, nil
}

// tailState generates the reader's requests on the graph as first
// loaded — where every Table 3 constraint is satisfiable, which random
// deletes in the tail need not leave it — then replays the WAL tail on
// the model, bringing it to state 0 of the measured window. Reads are
// checked against each state's own answers, so the answers drawn with
// the requests are not used.
func (r *run) tailState(wi *writeInputs, m *model) ([]request, error) {
	cs, err := instancesAt(m)
	if err != nil {
		return nil, err
	}
	reqs, err := genRequests(r.seed, m, cs, genConfig{n: r.spec.requests, falseEvery: r.spec.falseEvery})
	if err != nil {
		return nil, err
	}
	for _, b := range wi.tail {
		if err := m.apply(b); err != nil {
			return nil, err
		}
	}
	m.freeze()
	return reqs, nil
}

func (r *run) writeMix() error {
	wi, m, err := r.makeWriteInputs()
	if err != nil {
		return err
	}
	r.phase("inputs")
	runtime.GC()
	eng, _, err := r.setupOpen()
	if err != nil {
		return err
	}
	r.set("heap_mb", liveHeapMB(), "MB")
	r.phase("set-up")
	reqs, err := r.tailState(wi, m)
	if err != nil {
		eng.Close()
		return err
	}
	r.noteMix(reqs)
	svc, err := startService(eng, r.spec.readers+1)
	if err != nil {
		eng.Close()
		return err
	}
	closedLoop(svc.cl, reqs, r.spec.readers, time.Now().Add(time.Second), -1)

	watch := watchDir(r.storeDir(), 5*time.Millisecond)
	e0 := eng.Epoch()
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	writes := make([]writeRec, len(wi.batches))
	// Cache counters live on the epoch each batch replaces, so the writer
	// reads them just before sending: reads that land between that and
	// the publish, and epochs a compaction swap replaces, go uncounted.
	var hits, lookups int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k, b := range wi.batches {
			w := &writes[k]
			w.due = start.Add(time.Duration(float64(k) / batchRate * float64(time.Second)))
			time.Sleep(time.Until(w.due))
			cs := eng.CacheStats()
			hits, lookups = hits+cs.Hits, lookups+cs.Hits+cs.Misses
			w.sent = time.Now()
			w.resp, w.err = svc.cl.Mutate(context.Background(), b)
			w.ack = time.Now()
		}
	}()
	per := closedLoop(svc.cl, reqs, r.spec.readers, deadline, 1)
	wg.Wait()
	end := time.Now()
	watch.finish()
	e1 := eng.Epoch()
	cs := eng.CacheStats()
	hits, lookups = hits+cs.Hits, lookups+cs.Hits+cs.Misses
	r.note("constraint cache: about %d hits, %d misses in the window, summed over epochs", hits, lookups-hits)
	svc.close()

	r.phase("window")
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	r.queryMetrics(all, start, deadline.Sub(start))
	r.writeMetrics(writes, watch, e1.Compactions-e0.Compactions, end.Sub(start))

	// Each read may have seen any state from the last batch acknowledged
	// before it was sent to the last batch sent before it returned.
	reads := make([]readRec, len(all))
	for i, s := range all {
		reads[i] = readRec{sample: s,
			lo: sort.Search(len(writes), func(k int) bool { return !writes[k].ack.Before(s.sent) }),
			hi: sort.Search(len(writes), func(k int) bool { return !writes[k].sent.Before(s.recv) }),
		}
	}
	for _, w := range writes {
		c := r.op("mutate")
		c.attempted++
		if w.err != nil {
			c.failed++
			r.wrong("mutate failed: %v; later reads cannot be checked", w.err)
		}
	}
	if len(r.problems) > 0 {
		// A failed write leaves the log unknown: nothing later can be
		// checked.
		return eng.Close()
	}
	if err := r.checkReads(m, reqs, reads, wi.batches); err != nil {
		eng.Close()
		return err
	}
	r.phase("read checks")
	for _, b := range wi.batches {
		if err := m.apply(b); err != nil {
			eng.Close()
			return err
		}
	}
	err = r.finalState(eng, m, reqs)
	r.phase("final state")
	return err
}

// writeMetrics reports the writer's figures.
func (r *run) writeMetrics(writes []writeRec, watch *dirWatch, compactions int64, window time.Duration) {
	var apply, late []float64
	ops := 0
	for _, w := range writes {
		if w.err == nil {
			apply = append(apply, ms(w.ack.Sub(w.due)))
			ops += w.resp.Added + w.resp.Deleted
		}
		late = append(late, ms(w.sent.Sub(w.due)))
	}
	written := watch.walB + watch.segB
	r.extra("apply_p50_ms", quantile(apply, 0.5), "ms")
	r.extra("apply_p99_ms", quantile(apply, 0.99), "ms")
	r.extra("write_bytes_per_op", float64(written)/float64(max(ops, 1)), "B")
	r.note("writes: %d batches of %d ops at %d/s in %.3f s; apply p50/p99 over %d samples; generator lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms",
		len(writes), batchOps, batchRate, window.Seconds(), len(apply), quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1))
	r.note("bytes written to the data directory: %d WAL + %d in %d sealed segments, for %d committed edge ops; %d compactions completed in the window",
		watch.walB, watch.segB, len(watch.sealed), ops, compactions)
}

// checkReads checks every read against the oracle at some state in its
// window. The reads are split by their first state among one worker
// per processor; each worker replays the log on its own copy of the
// model from state 0 and walks the states in order. m is left at state
// 0.
func (r *run) checkReads(m *model, reqs []request, reads []readRec, batches [][]api.Mutation) error {
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].lo < reads[j].lo })
	matched := make([]bool, len(reads))
	firstWhy := make([]string, len(reads))
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(reads)/workers, (w+1)*len(reads)/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w int, mine []readRec, matched []bool, firstWhy []string) {
			defer wg.Done()
			errs[w] = checkStates(m.clone(), reqs, mine, batches, matched, firstWhy)
		}(w, reads[lo:hi], matched[lo:hi], firstWhy[lo:hi])
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, rd := range reads {
		c := r.op("query")
		c.attempted++
		if rd.err != nil {
			c.failed++
			r.wrong("query %d failed: %v", rd.req, rd.err)
			continue
		}
		if !matched[i] {
			q := reqs[rd.req]
			r.wrong("query %d %s -> %s (states %d..%d) matches no state it could have seen; %s",
				rd.req, q.wire.Source, q.wire.Target, rd.lo, rd.hi, firstWhy[i])
		}
	}
	return nil
}

// checkStates checks reads, sorted by first state, walking the states
// from the first one they need; m is a private copy at state 0.
func checkStates(m *model, reqs []request, reads []readRec, batches [][]api.Mutation, matched []bool, firstWhy []string) error {
	for k := 0; k < reads[0].lo; k++ {
		if err := m.apply(batches[k]); err != nil {
			return err
		}
	}
	next := 0 // reads[:next] have lo <= the current state
	var active []int
	for k := reads[0].lo; k <= len(batches) && (next < len(reads) || len(active) > 0); k++ {
		if k > reads[0].lo {
			if err := m.apply(batches[k-1]); err != nil {
				return err
			}
		}
		for next < len(reads) && reads[next].lo <= k {
			active = append(active, next)
			next++
		}
		var keep []int
		var st *stateOracle
		for _, i := range active {
			rd := reads[i]
			if rd.err != nil || rd.hi < k {
				continue
			}
			if st == nil {
				var err error
				if st, err = newStateOracle(m); err != nil {
					return err
				}
			}
			why := st.verdict(reqs[rd.req], rd.resp)
			if why == "" {
				matched[i] = true
				continue
			}
			if firstWhy[i] == "" {
				firstWhy[i] = fmt.Sprintf("at state %d: %s", k, why)
			}
			if rd.hi > k {
				keep = append(keep, i)
			}
		}
		active = keep
	}
	return nil
}

// clone returns an independent copy of the model's names and triples.
func (m *model) clone() *model {
	c := &model{V: &symtab{id: maps.Clone(m.V.id), name: slices.Clone(m.V.name)},
		L: &symtab{id: maps.Clone(m.L.id), name: slices.Clone(m.L.name)}, count: maps.Clone(m.count)}
	return c
}

// stateOracle answers requests against one model state.
type stateOracle struct {
	m    *model
	cs   []*constraint
	sr   *searcher
	ck   *checker
	memo map[string]bool
}

func newStateOracle(m *model) (*stateOracle, error) {
	m.freeze()
	cs, err := instancesAt(m)
	if err != nil {
		return nil, err
	}
	return &stateOracle{m: m, cs: cs, sr: newSearcher(m), ck: newChecker(m), memo: map[string]bool{}}, nil
}

// verdict checks a response to q against this state.
func (st *stateOracle) verdict(q request, resp api.QueryResponse) string {
	vs := make([][]int32, len(q.cons))
	sets := make([]map[int32]bool, len(q.cons))
	key := fmt.Sprint(q.src, q.dst, q.L)
	for i, c := range q.cons {
		vs[i], sets[i] = st.cs[c.tmpl].vs, st.cs[c.tmpl].vsSet
		key += fmt.Sprint(" ", c.tmpl)
	}
	want, ok := st.memo[key]
	if !ok {
		want = st.sr.reach(q.src, q.dst, q.L, vs)
		st.memo[key] = want
	}
	return st.ck.verdict(q, resp, want, sets)
}

// finalState seals, closes and reopens the store, then checks the full
// request set against the oracle on the final log.
func (r *run) finalState(eng *lscr.Engine, m *model, reqs []request) error {
	ctx := context.Background()
	if _, err := eng.Compact(ctx); err != nil {
		eng.Close()
		return fmt.Errorf("final compact: %v", err)
	}
	if err := eng.Close(); err != nil {
		return fmt.Errorf("final close: %v", err)
	}
	eng, err := lscr.Open(r.storeDir(), lscr.Options{})
	if err != nil {
		return fmt.Errorf("final reopen: %v", err)
	}
	defer eng.Close()
	st, err := newStateOracle(m)
	if err != nil {
		return err
	}
	bad := 0
	for i, q := range reqs {
		c := r.op("reopened")
		c.attempted++
		req, err := q.wire.ToRequest()
		if err != nil {
			return err
		}
		resp, err := eng.Query(ctx, req)
		if err != nil {
			c.failed++
			r.wrong("reopened store: query %d failed: %v", i, err)
			continue
		}
		if why := st.verdict(q, api.FromResponse(resp)); why != "" {
			bad++
			r.wrong("reopened store: query %d %s -> %s: %s", i, q.wire.Source, q.wire.Target, why)
		}
	}
	r.note("final state: compact, close, reopen; %d requests checked against the oracle on the final log, %d wrong", len(reqs), bad)
	return nil
}
