package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"

	"lscr/api"
	"lscr/internal/graph"
	"lscr/internal/lubm"
	"lscr/internal/pattern"
	"lscr/internal/rdf"
	"lscr/internal/sparql"
)

// conjShare is the share of two-constraint conjunctive requests; one
// request in five asks for a witness (see drawer.pair).
const conjShare = 0.10

// writeLUBM generates a LUBM graph of the given size from seed and
// writes it as N-Triples to path. It returns the vertex and edge counts.
func writeLUBM(path string, universities int, seed int64) (*graph.Graph, error) {
	cfg := lubm.DefaultConfig(universities)
	cfg.Seed = seed
	g := lubm.Generate(cfg)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := rdf.Dump(g, w); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return g, f.Close()
}

// template is one Table 3 constraint shape. text renders it with a
// projected-variable name and the template's constant.
type template struct {
	name string
	text func(focus, constant string) string
}

var templates = []template{
	{"S1", func(x, c string) string {
		return fmt.Sprintf(`SELECT ?%s WHERE { ?%s <ub:researchInterest> '%s'.}`, x, x, c)
	}},
	{"S2", func(x, c string) string {
		return fmt.Sprintf(`SELECT ?%s WHERE { ?%s <ub:researchInterest> '%s'. ?%s <rdf:type> <ub:AssociateProfessor>.}`, x, x, c, x)
	}},
	{"S3", func(x, _ string) string {
		return fmt.Sprintf(`SELECT ?%s WHERE {?%s <rdf:type> <ub:UndergraduateStudent>. ?%s <ub:takesCourse> ?y. ?y <rdf:type> <ub:Course>.}`, x, x, x)
	}},
	{"S4", func(x, c string) string {
		return fmt.Sprintf(`SELECT ?%s WHERE {?%s <ub:name> '%s'. ?%s <ub:takesCourse> ?y1. ?%s <ub:advisor> ?y2. ?%s <ub:memberOf> ?y3. `+
			`?z1 <ub:takesCourse> ?y1. ?y2 <ub:teacherOf> ?z2. ?y2 <ub:worksFor> ?z3. ?y3 <ub:subOrganizationOf> ?z4.}`, x, x, c, x, x, x)
	}},
	{"S5", func(x, c string) string {
		return fmt.Sprintf(`SELECT ?%s WHERE {?%s <ub:emailAddress> '%s'. ?%s <ub:undergraduateDegreeFrom> ?y1. ?%s <ub:mastersDegreeFrom> ?y2. `+
			`?%s <ub:doctoralDegreeFrom> ?y3.}`, x, x, c, x, x, x)
	}},
}

// table3Constants are the constants Table 3 states.
var table3Constants = []string{"Research12", "Research12", "", "GraduateStudent4", "FullProfessor0@Department0.University0.edu"}

// constraint is one semantic constraint instance: a template with its
// constant, and V(S,G) on the graph it was evaluated on.
type constraint struct {
	tmpl     int
	constant string
	vs       []int32 // model IDs, ascending
	vsSet    map[int32]bool
}

func (c *constraint) text(focus string) string { return templates[c.tmpl].text(focus, c.constant) }

// evalVS returns V(S,G) by vertex name: sparql.Parse + Compile +
// pattern.MatchAll on g.
func evalVS(g *graph.Graph, text string) ([]string, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return nil, err
	}
	cons, sat, err := q.Compile(g)
	if err != nil || !sat {
		return nil, err
	}
	mt, err := pattern.NewMatcher(g, cons)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, v := range mt.MatchAll() {
		names = append(names, g.VertexName(v))
	}
	return names, nil
}

// table3Instances returns S1–S5 with Table 3's own constants.
func table3Instances() []*constraint {
	out := make([]*constraint, len(templates))
	for i := range templates {
		out[i] = &constraint{tmpl: i, constant: table3Constants[i]}
	}
	return out
}

// variedInstances returns Table 3's templates with their constants
// varied: every research topic for S1 and S2, S3 as stated, every
// graduate-student name for S4, and professors drawn at random for S5.
func variedInstances(rng *rand.Rand, universities, s5 int) []*constraint {
	cfg := lubm.DefaultConfig(universities)
	var out []*constraint
	for n := 0; n < cfg.ResearchInterests; n++ {
		topic := fmt.Sprintf("Research%d", n)
		out = append(out, &constraint{tmpl: 0, constant: topic}, &constraint{tmpl: 1, constant: topic})
	}
	out = append(out, &constraint{tmpl: 2})
	for n := 0; n < cfg.GradsPerDept; n++ {
		out = append(out, &constraint{tmpl: 3, constant: fmt.Sprintf("GraduateStudent%d", n)})
	}
	kinds := []struct {
		base string
		n    int
	}{{"FullProfessor", cfg.FullProfessors}, {"AssociateProfessor", cfg.AssocProfessors}, {"AssistantProfessor", cfg.AssistProfessors}}
	seen := map[string]bool{}
	for len(seen) < s5 {
		k := kinds[rng.Intn(len(kinds))]
		email := fmt.Sprintf("%s%d@Department%d.University%d.edu", k.base, rng.Intn(k.n),
			rng.Intn(cfg.DeptsPerUniversity), rng.Intn(universities))
		if !seen[email] {
			seen[email] = true
			out = append(out, &constraint{tmpl: 4, constant: email})
		}
	}
	return out
}

// resolve sets V(S,G) from vertex names.
func (c *constraint) resolve(m *model, names []string) error {
	c.vs, c.vsSet = nil, make(map[int32]bool, len(names))
	for _, n := range names {
		id, ok := m.V.lookup(n)
		if !ok {
			return fmt.Errorf("V(S,G) vertex %q is not in the model", n)
		}
		c.vs = append(c.vs, id)
		c.vsSet[id] = true
	}
	sort.Slice(c.vs, func(i, j int) bool { return c.vs[i] < c.vs[j] })
	return nil
}

// request is one generated /v1/query request with the facts the oracle
// needs to check its answer.
type request struct {
	wire     api.QueryRequest
	src, dst int32
	L        labelMask
	cons     []*constraint
	bucket   int
	want     bool // the oracle's answer on the graph it was generated on
}

// genConfig controls request generation.
type genConfig struct {
	n int
	// distinctTexts gives every request its own constraint text (a
	// projected-variable name of its own), so the text-keyed constraint
	// cache cannot serve repeats.
	distinctTexts bool
	// falseEvery, when above 1, keeps the false request of only every
	// falseEvery-th pair, so true requests outnumber false ones
	// falseEvery to 1 and the median latency lies inside the true
	// requests' range rather than on the gap between the cheap true and
	// the exhaustive false ones.
	falseEvery int
}

// genRequests draws requests the way §6.1.1 of the paper does: the
// label set from one of three size buckets over [0.2t, 0.8t] of the
// label universe, a uniform random source whose L-closure is not
// trivially small, and a target outside the first log|V| BFS expansions
// from the source. Requests come in pairs sharing source, labels and
// constraints, one true and one false, so the shares are exactly equal
// unless cfg.falseEvery thins out the false ones; the oracle decides the
// answers as it draws. Each pair has its own random stream, so the pairs
// can be drawn in parallel and the result depends only on seed.
func genRequests(seed int64, m *model, cs []*constraint, cfg genConfig) ([]request, error) {
	byTmpl := make([][]*constraint, len(templates))
	for _, c := range cs {
		byTmpl[c.tmpl] = append(byTmpl[c.tmpl], c)
	}
	every := max(cfg.falseEvery, 1)
	pairs := (cfg.n*every + every) / (every + 1)
	drawn := make([]request, 2*pairs)
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := newDrawer(m)
			for p := w; p < pairs && errs[w] == nil; p += workers {
				rng := rand.New(rand.NewSource(seed*1_000_003 + int64(p)))
				pair, err := d.pair(rng, byTmpl, p)
				if err != nil {
					errs[w] = fmt.Errorf("request pair %d: %v", p, err)
					return
				}
				drawn[2*p], drawn[2*p+1] = pair[0], pair[1]
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var out []request
	for p := 0; p < pairs; p++ {
		out = append(out, drawn[2*p])
		if p%every == 0 {
			out = append(out, drawn[2*p+1])
		}
	}
	if len(out) < cfg.n {
		return nil, fmt.Errorf("drew %d requests, want %d", len(out), cfg.n)
	}
	out = out[:cfg.n]
	for i := range out {
		focus := "x"
		if cfg.distinctTexts {
			focus = fmt.Sprintf("x%d", i)
		}
		out[i].wire = out[i].withFocus(focus)
	}
	return out, nil
}

// withFocus returns the wire request with its constraint texts rendered
// with the given projected-variable name.
func (q request) withFocus(focus string) api.QueryRequest {
	w := q.wire
	w.Constraint, w.Constraints = "", nil
	if len(q.cons) == 1 {
		w.Constraint = q.cons[0].text(focus)
		return w
	}
	for _, c := range q.cons {
		w.Constraints = append(w.Constraints, c.text(focus))
	}
	return w
}

// drawer is one generator goroutine's scratch.
type drawer struct {
	m       *model
	sr      *searcher
	near    []uint32
	nearGen uint32
	logV    float64
}

func newDrawer(m *model) *drawer {
	n := len(m.V.name)
	return &drawer{m: m, sr: newSearcher(m), near: make([]uint32, n),
		logV: math.Max(1, math.Log2(float64(n)))}
}

// pair draws pair p: one true and one false request. The pair's
// label bucket, template, conjunction and witness flags follow from p
// alone, so every stretch of 150 consecutive requests holds the mix in
// exact shares; only sources, targets, labels and constants are random.
func (d *drawer) pair(rng *rand.Rand, byTmpl [][]*constraint, p int) ([2]request, error) {
	m, sr := d.m, d.sr
	n, nl := len(m.V.name), len(m.L.name)
	bucket := p % 3
	tmpls := []int{(p / 3) % len(templates)}
	if float64(p%10) < conjShare*10 {
		tmpls = append(tmpls, (tmpls[0]+1+(p/10)%(len(templates)-1))%len(templates))
	}
	witness := p%5 == (p/15)%5 // one pair in five
	var picked []*constraint
	var vs [][]int32
	for _, t := range tmpls {
		c := byTmpl[t][rng.Intn(len(byTmpl[t]))]
		picked = append(picked, c)
		vs = append(vs, c.vs)
	}
	for attempt := 0; attempt < 1000; attempt++ {
		lo := float64(nl) * (0.2 + 0.2*float64(bucket))
		size := max(1, min(int(lo)+rng.Intn(int(0.2*float64(nl))+1), nl))
		var L labelMask
		var labels []string
		for _, l := range rng.Perm(nl)[:size] {
			L.add(int32(l))
			labels = append(labels, m.L.name[l])
		}
		sort.Strings(labels)
		s := int32(rng.Intn(n))
		// The paper's |T| filter, with the source's L-closure standing in
		// for the search tree: a random minimum in
		// [10·log|V|, |V|/(10·log|V|)].
		minTree := 10 * d.logV
		hi := math.Max(minTree, float64(n)/(10*d.logV))
		minTree += rng.Float64() * (hi - minTree)
		if float64(sr.passSet(s, L, vs)) < minTree {
			continue
		}
		d.nearGen++
		markNear(m, s, L, int(d.logV), d.near, d.nearGen)
		var cands []int32
		for _, v := range sr.closureOf() {
			if sr.inPass(v) && d.near[v] != d.nearGen {
				cands = append(cands, v)
			}
		}
		if len(cands) == 0 {
			continue
		}
		tTrue := cands[rng.Intn(len(cands))]
		tFalse := int32(-1)
		for try := 0; try < 64; try++ {
			if v := int32(rng.Intn(n)); !sr.inPass(v) && d.near[v] != d.nearGen {
				tFalse = v
				break
			}
		}
		if tFalse < 0 {
			continue
		}
		var pair [2]request
		for i, t := range [2]int32{tTrue, tFalse} {
			pair[i] = request{src: s, dst: t, L: L, cons: picked, bucket: bucket, want: i == 0}
			pair[i].wire = api.QueryRequest{Source: m.V.name[s], Target: m.V.name[t], Labels: labels, Witness: witness}
		}
		return pair, nil
	}
	return [2]request{}, fmt.Errorf("no acceptable source in 1000 attempts")
}

// markNear stamps the vertices a label-constrained BFS from s discovers
// in its first steps vertex expansions — the paper's "vertices that s
// reaches only with a few steps".
func markNear(m *model, s int32, L labelMask, steps int, mark []uint32, gen uint32) {
	a := m.adj
	mark[s] = gen
	q := []int32{s}
	for i := 0; i < len(q) && i < steps; i++ {
		v := q[i]
		for e := a.off[v]; e < a.off[v+1]; e++ {
			if w := a.to[e]; mark[w] != gen && L.has(a.lab[e]) {
				mark[w] = gen
				q = append(q, w)
			}
		}
	}
}
