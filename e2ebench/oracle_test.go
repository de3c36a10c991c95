package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"lscr/api"
)

// build makes a frozen model from "s p o" lines.
func build(t *testing.T, lines ...string) *model {
	t.Helper()
	m := newModel()
	for _, l := range lines {
		f := strings.Fields(l)
		if err := m.add(f[0], f[1], f[2]); err != nil {
			t.Fatal(err)
		}
	}
	m.freeze()
	return m
}

func ids(t *testing.T, m *model, names ...string) []int32 {
	t.Helper()
	var out []int32
	for _, n := range names {
		id, ok := m.V.lookup(n)
		if !ok {
			t.Fatalf("no vertex %q", n)
		}
		out = append(out, id)
	}
	return out
}

func mask(t *testing.T, m *model, labels ...string) labelMask {
	t.Helper()
	L, ok := m.mask(labels)
	if !ok {
		t.Fatalf("unknown label in %v", labels)
	}
	return L
}

func TestOracleKnownAnswers(t *testing.T) {
	cases := []struct {
		name   string
		edges  []string
		s, t   string
		labels []string
		vs     [][]string
		want   bool
	}{
		{
			name:  "L-path to t misses every satisfying vertex",
			edges: []string{"s a x", "x a t", "s a y", "y b t"},
			s:     "s", t: "t", labels: []string{"a"}, vs: [][]string{{"y"}},
			want: false,
		},
		{
			name:  "same graph, the satisfying vertex's exit label allowed",
			edges: []string{"s a x", "x a t", "s a y", "y b t"},
			s:     "s", t: "t", labels: []string{"a", "b"}, vs: [][]string{{"y"}},
			want: true,
		},
		{
			name:  "satisfying vertex reachable only through a label outside L",
			edges: []string{"s b y", "y a t", "s a t"},
			s:     "s", t: "t", labels: []string{"a"}, vs: [][]string{{"y"}},
			want: false,
		},
		{
			name:  "satisfying vertex after the target only",
			edges: []string{"s a t", "t a y"},
			s:     "s", t: "t", labels: []string{"a"}, vs: [][]string{{"y"}},
			want: false,
		},
		{
			name:  "source itself satisfies",
			edges: []string{"s a t"},
			s:     "s", t: "t", labels: []string{"a"}, vs: [][]string{{"s"}},
			want: true,
		},
		{
			name:  "a cycle returns through the satisfying vertex",
			edges: []string{"s a t", "t a y", "y a s"},
			s:     "s", t: "t", labels: []string{"a"}, vs: [][]string{{"y"}},
			want: true,
		},
		{
			name:  "conjunction reachable in the order S1 then S2 only",
			edges: []string{"s a u", "u a v", "v a t"},
			s:     "s", t: "t", labels: []string{"a"}, vs: [][]string{{"u"}, {"v"}},
			want: true,
		},
		{
			name:  "conjunction reachable in the order S2 then S1 only",
			edges: []string{"s a v", "v a u", "u a t"},
			s:     "s", t: "t", labels: []string{"a"}, vs: [][]string{{"u"}, {"v"}},
			want: true,
		},
		{
			name:  "conjuncts on separate branches",
			edges: []string{"s a u", "u a t", "s a v", "v a t"},
			s:     "s", t: "t", labels: []string{"a"}, vs: [][]string{{"u"}, {"v"}},
			want: false,
		},
		{
			name:  "one vertex satisfies both conjuncts",
			edges: []string{"s a u", "u a t"},
			s:     "s", t: "t", labels: []string{"a"}, vs: [][]string{{"u"}, {"u"}},
			want: true,
		},
		{
			name:  "second conjunct needs a label outside L",
			edges: []string{"s a u", "u a t", "u b v", "v a t"},
			s:     "s", t: "t", labels: []string{"a"}, vs: [][]string{{"u"}, {"v"}},
			want: false,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := build(t, c.edges...)
			var vs [][]int32
			for _, names := range c.vs {
				vs = append(vs, ids(t, m, names...))
			}
			sr := newSearcher(m)
			got := sr.reach(ids(t, m, c.s)[0], ids(t, m, c.t)[0], mask(t, m, c.labels...), vs)
			if got != c.want {
				t.Fatalf("reach = %v, want %v", got, c.want)
			}
		})
	}
}

func TestOracleMultisetDelete(t *testing.T) {
	m := build(t, "s a t", "s a t")
	sr := newSearcher(m)
	s, tt := ids(t, m, "s")[0], ids(t, m, "t")[0]
	vs := [][]int32{{s}}
	if !m.remove("s", "a", "t") {
		t.Fatal("first delete failed")
	}
	m.freeze()
	sr = newSearcher(m)
	if !sr.reach(s, tt, mask(t, m, "a"), vs) {
		t.Fatal("one copy of a doubled edge must remain after one delete")
	}
	if !m.remove("s", "a", "t") || m.remove("s", "a", "t") {
		t.Fatal("second delete must succeed and a third must fail")
	}
	m.freeze()
	sr = newSearcher(m)
	if sr.reach(s, tt, mask(t, m, "a"), vs) {
		t.Fatal("edge deleted twice is still traversed")
	}
}

func TestWitnessChecker(t *testing.T) {
	m := build(t, "s a x", "x a y", "y a t", "s b t")
	set := func(names ...string) map[int32]bool {
		out := map[int32]bool{}
		for _, id := range ids(t, m, names...) {
			out[id] = true
		}
		return out
	}
	hops := func(h ...string) [][3]string {
		var out [][3]string
		for _, x := range h {
			f := strings.Fields(x)
			out = append(out, [3]string{f[0], f[1], f[2]})
		}
		return out
	}
	good := witness{hops: hops("s a x", "x a y", "y a t"), satisfiedBy: []string{"y"}}
	if err := m.checkWitness("s", "t", []string{"a"}, []map[int32]bool{set("y")}, good); err != nil {
		t.Fatalf("valid witness rejected: %v", err)
	}
	bad := []struct {
		name   string
		labels []string
		vs     []map[int32]bool
		w      witness
	}{
		{"label outside L", []string{"a"}, []map[int32]bool{set("s")}, witness{hops: hops("s b t"), satisfiedBy: []string{"s"}}},
		{"hop not an edge", []string{"a"}, []map[int32]bool{set("x")}, witness{hops: hops("s a x", "x a t"), satisfiedBy: []string{"x"}}},
		{"broken chain", []string{"a"}, []map[int32]bool{set("y")}, witness{hops: hops("s a x", "y a t"), satisfiedBy: []string{"y"}}},
		{"wrong start", []string{"a"}, []map[int32]bool{set("y")}, witness{hops: hops("x a y", "y a t"), satisfiedBy: []string{"y"}}},
		{"wrong end", []string{"a"}, []map[int32]bool{set("y")}, witness{hops: hops("s a x", "x a y"), satisfiedBy: []string{"y"}}},
		{"satisfying vertex off the walk", []string{"a", "b"}, []map[int32]bool{set("y")}, witness{hops: hops("s b t"), satisfiedBy: []string{"y"}}},
		{"satisfying vertex not in V(S,G)", []string{"a"}, []map[int32]bool{set("y")}, witness{hops: hops("s a x", "x a y", "y a t"), satisfiedBy: []string{"x"}}},
		{"too few satisfying vertices", []string{"a"}, []map[int32]bool{set("y"), set("x")}, good},
		{"empty walk between distinct vertices", []string{"a"}, []map[int32]bool{set("s")}, witness{satisfiedBy: []string{"s"}}},
	}
	for _, c := range bad {
		if err := m.checkWitness("s", "t", c.labels, c.vs, c.w); err == nil {
			t.Errorf("%s: invalid witness accepted", c.name)
		}
	}
}

func TestVerdictRejectsWrongAnswers(t *testing.T) {
	m := build(t, "s a y", "y a t")
	c := &constraint{vs: ids(t, m, "y"), vsSet: map[int32]bool{ids(t, m, "y")[0]: true}}
	q := request{cons: []*constraint{c}, wire: api.QueryRequest{Source: "s", Target: "t", Labels: []string{"a"}, Witness: true}}
	ck := newChecker(m)
	w := &api.Witness{Hops: []api.Hop{{From: "s", Label: "a", To: "y"}, {From: "y", Label: "a", To: "t"}}, SatisfiedBy: []string{"y"}}
	ok := api.QueryResponse{Reachable: true, Algorithm: "ins", SatisfyingVertices: 1, Witness: w}
	if why := ck.verdict(q, ok, true, q.vsets()); why != "" {
		t.Fatalf("correct response rejected: %s", why)
	}
	for name, resp := range map[string]api.QueryResponse{
		"wrong answer":     {Reachable: false, Algorithm: "ins", SatisfyingVertices: 1},
		"missing witness":  {Reachable: true, Algorithm: "ins", SatisfyingVertices: 1},
		"wrong |V(S,G)|":   {Reachable: true, Algorithm: "ins", SatisfyingVertices: 2, Witness: w},
		"witness on false": {Reachable: false, Algorithm: "ins", SatisfyingVertices: 1, Witness: w},
	} {
		want := name != "witness on false"
		if why := ck.verdict(q, resp, want, q.vsets()); why == "" {
			t.Errorf("%s: accepted", name)
		}
	}
	// A request with the same s, t and L but another constraint, whose
	// V(S,G) holds only t, gets the walk already accepted above; y
	// satisfies nothing here, so the witness must not pass on the
	// strength of the earlier check.
	tv := ids(t, m, "t")[0]
	c2 := &constraint{vs: []int32{tv}, vsSet: map[int32]bool{tv: true}}
	q2 := request{cons: []*constraint{c2}, wire: q.wire}
	q2.wire.Constraint = "another constraint text"
	if why := ck.verdict(q2, ok, true, q2.vsets()); why == "" {
		t.Errorf("witness accepted for another constraint whose V(S,G) does not hold its satisfying vertex")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json registers exactly the
// workloads the program runs and the metrics it reports: the end-to-end
// ones every untraced run sets and the traced run's per-layer list.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json has %d workloads, the program runs %d", len(bench.Workloads), len(specs))
	}
	for i, w := range bench.Workloads {
		if i < len(specs) && w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, specs[i].name)
		}
	}
	e2e := map[string]string{"setup_s": "s", "query_qps": "1/s", "query_p50_ms": "ms", "query_p99_ms": "ms", "heap_mb": "MB"}
	if len(bench.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program reports %d", len(bench.EndToEnd), len(e2e))
	}
	for _, m := range bench.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end %s %s: the program reports %q", m.Name, m.Unit, e2e[m.Name])
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program reports %d", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range bench.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s %s, program %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
