package main

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"
)

// This file is the benchmark's own model of a knowledge graph and its
// own answer to an LSCR query. It shares no code with the engine: the
// N-Triples reader, the edge multiset, the adjacency and the BFS are all
// written here, so an engine bug cannot hide in the reference it is
// checked against. V(S,G) is the one input taken from the program
// (pattern.MatchAll over a graph the benchmark builds; see inputs.go).

// symtab interns names to dense int32 IDs.
type symtab struct {
	id   map[string]int32
	name []string
}

func newSymtab() *symtab { return &symtab{id: make(map[string]int32)} }

func (t *symtab) intern(s string) int32 {
	if id, ok := t.id[s]; ok {
		return id
	}
	id := int32(len(t.name))
	t.id[s] = id
	t.name = append(t.name, s)
	return id
}

func (t *symtab) lookup(s string) (int32, bool) {
	id, ok := t.id[s]
	return id, ok
}

// edgeKey packs (subject, label, object): 28 bits per vertex, 8 for the
// label.
type edgeKey uint64

const maxModelVertices = 1 << 28

func mkKey(s int32, l uint8, o int32) edgeKey {
	return edgeKey(uint64(s)<<36 | uint64(l)<<28 | uint64(o))
}

func (k edgeKey) parts() (s int32, l uint8, o int32) {
	return int32(k >> 36), uint8(k >> 28), int32(k & (1<<28 - 1))
}

// model is a labeled multigraph: vertex and label tables plus the
// multiplicity of every (s, l, o) triple. adj is the forward adjacency
// of the triples present (count > 0), rebuilt by freeze.
type model struct {
	V, L  *symtab
	count map[edgeKey]int32
	adj   adjacency
}

type adjacency struct {
	off []int32
	to  []int32
	lab []uint8
}

func newModel() *model {
	return &model{V: newSymtab(), L: newSymtab(), count: make(map[edgeKey]int32)}
}

// readNTriples loads a triple file written as "<s> <p> <o> ." lines.
func readNTriples(r io.Reader) (*model, error) {
	m := newModel()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		var terms [3]string
		rest := text
		for i := range terms {
			rest = strings.TrimLeft(rest, " \t")
			if !strings.HasPrefix(rest, "<") {
				return nil, fmt.Errorf("line %d: term %d is not <...>: %q", line, i, text)
			}
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				return nil, fmt.Errorf("line %d: unterminated term: %q", line, text)
			}
			terms[i] = rest[1:end]
			rest = rest[end+1:]
		}
		if strings.TrimSpace(rest) != "." {
			return nil, fmt.Errorf("line %d: missing final dot: %q", line, text)
		}
		if err := m.add(terms[0], terms[1], terms[2]); err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *model) add(s, p, o string) error {
	si, li, oi := m.V.intern(s), m.L.intern(p), m.V.intern(o)
	if li > 255 || si >= maxModelVertices || oi >= maxModelVertices {
		return fmt.Errorf("model holds at most 256 labels and %d vertices", maxModelVertices)
	}
	m.count[mkKey(si, uint8(li), oi)]++
	return nil
}

// remove deletes one instance of (s, p, o); it reports false when none
// is present.
func (m *model) remove(s, p, o string) bool {
	si, ok1 := m.V.lookup(s)
	li, ok2 := m.L.lookup(p)
	oi, ok3 := m.V.lookup(o)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	k := mkKey(si, uint8(li), oi)
	c := m.count[k]
	if c <= 0 {
		return false
	}
	if c == 1 {
		delete(m.count, k)
	} else {
		m.count[k] = c - 1
	}
	return true
}

// has reports whether at least one (s, l, o) triple is present.
func (m *model) has(s int32, l uint8, o int32) bool { return m.count[mkKey(s, l, o)] > 0 }

// keys returns the present triples in ascending key order, so that
// everything derived from them is deterministic.
func (m *model) keys() []edgeKey {
	ks := make([]edgeKey, 0, len(m.count))
	for k := range m.count {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// freeze rebuilds the forward adjacency from the multiset.
func (m *model) freeze() {
	n := len(m.V.name)
	a := adjacency{off: make([]int32, n+1)}
	ks := m.keys()
	a.to = make([]int32, len(ks))
	a.lab = make([]uint8, len(ks))
	for _, k := range ks {
		s, _, _ := k.parts()
		a.off[s+1]++
	}
	for v := 0; v < n; v++ {
		a.off[v+1] += a.off[v]
	}
	for i, k := range ks { // keys sorted by subject: fill in order
		_, l, o := k.parts()
		a.to[i] = o
		a.lab[i] = l
	}
	m.adj = a
}

// labelMask is a set of model label IDs.
type labelMask [4]uint64

func (lm *labelMask) add(l int32)     { lm[l>>6] |= 1 << (l & 63) }
func (lm labelMask) has(l uint8) bool { return lm[l>>6]&(1<<(l&63)) != 0 }
func (m *model) mask(names []string) (labelMask, bool) {
	var lm labelMask
	for _, n := range names {
		l, ok := m.L.lookup(n)
		if !ok {
			return lm, false
		}
		lm.add(l)
	}
	return lm, true
}

// searcher holds the per-goroutine BFS scratch for one frozen model.
type searcher struct {
	m     *model
	mark  []uint32 // generation stamps for the current closure
	markA []uint32 // generation stamps for the source's closure
	gen   uint32
	queue []int32
	aList []int32
}

func newSearcher(m *model) *searcher {
	n := len(m.V.name)
	return &searcher{m: m, mark: make([]uint32, n), markA: make([]uint32, n)}
}

// closure marks every vertex reachable from sources over edges whose
// label is in L (sources included: a walk may have no edges) with a fresh
// generation in marks, and returns them in BFS order. The returned slice
// aliases scratch and is valid until the next call.
func (sr *searcher) closure(marks []uint32, sources []int32, L labelMask) []int32 {
	sr.gen++
	g := sr.gen
	q := sr.queue[:0]
	for _, v := range sources {
		if marks[v] != g {
			marks[v] = g
			q = append(q, v)
		}
	}
	a := sr.m.adj
	for i := 0; i < len(q); i++ {
		v := q[i]
		for e := a.off[v]; e < a.off[v+1]; e++ {
			w := a.to[e]
			if marks[w] != g && L.has(a.lab[e]) {
				marks[w] = g
				q = append(q, w)
			}
		}
	}
	sr.queue = q
	return q
}

// within returns the members of vs stamped with the current generation
// of marks.
func (sr *searcher) within(marks []uint32, vs []int32, dst []int32) []int32 {
	dst = dst[:0]
	for _, v := range vs {
		if marks[v] == sr.gen {
			dst = append(dst, v)
		}
	}
	return dst
}

// passSet computes the vertices t for which s -L-> v1 -L-> ... -L-> t
// passes a member of every set in vs (one or two sets; with two, in
// either visiting order), and stamps them in sr.mark with generation
// sr.gen. The result answers every query from s under L with these
// constraints at once. It returns the size of s's L-closure as well.
func (sr *searcher) passSet(s int32, L labelMask, vs [][]int32) (closure int) {
	A := sr.closure(sr.markA, []int32{s}, L)
	sr.aList = append(sr.aList[:0], A...)
	closure = len(A)
	genA := sr.gen
	inA := func(set []int32) []int32 {
		var out []int32
		for _, v := range set {
			if sr.markA[v] == genA {
				out = append(out, v)
			}
		}
		return out
	}
	switch len(vs) {
	case 1:
		sr.closure(sr.mark, inA(vs[0]), L)
	case 2:
		// Either order may work, so the union of both orders' results is
		// the answer set. Each order's final closure is collected, then
		// the union is stamped with one last generation.
		var union []int32
		for _, ord := range [2][2]int{{0, 1}, {1, 0}} {
			sr.closure(sr.mark, inA(vs[ord[0]]), L)
			C12 := sr.within(sr.mark, vs[ord[1]], nil)
			B12 := sr.closure(sr.mark, C12, L)
			union = append(union, B12...)
		}
		sr.gen++
		for _, v := range union {
			sr.mark[v] = sr.gen
		}
	default:
		panic(fmt.Sprintf("oracle: %d constraints", len(vs)))
	}
	return closure
}

// closureOf returns the source's L-closure from the last passSet.
func (sr *searcher) closureOf() []int32 { return sr.aList }

// inPass reports whether v was stamped by the last passSet.
func (sr *searcher) inPass(v int32) bool { return sr.mark[v] == sr.gen }

// reach answers one LSCR query: is there a walk s -> t, every edge
// labeled in L, passing a member of each set in vs.
func (sr *searcher) reach(s, t int32, L labelMask, vs [][]int32) bool {
	sr.passSet(s, L, vs)
	return sr.inPass(t)
}

// witness is the wire-independent shape of a returned witness.
type witness struct {
	hops        [][3]string // from, label, to
	satisfiedBy []string
}

// checkWitness verifies a witness against the model: every hop is a
// present triple with a label in L (all labels when L is empty), the
// hops chain from s to t, and satisfiedBy[i] lies on the walk and in
// vs[i].
func (m *model) checkWitness(s, t string, labels []string, vs []map[int32]bool, w witness) error {
	var L labelMask
	if len(labels) > 0 {
		var ok bool
		if L, ok = m.mask(labels); !ok {
			return fmt.Errorf("unknown label in %v", labels)
		}
	}
	onWalk := map[string]bool{s: true}
	at := s
	for i, h := range w.hops {
		if h[0] != at {
			return fmt.Errorf("hop %d starts at %q, walk is at %q", i, h[0], at)
		}
		fi, ok1 := m.V.lookup(h[0])
		li, ok2 := m.L.lookup(h[1])
		ti, ok3 := m.V.lookup(h[2])
		if !ok1 || !ok2 || !ok3 || !m.has(fi, uint8(li), ti) {
			return fmt.Errorf("hop %d %v is not an edge of the graph", i, h)
		}
		if len(labels) > 0 && !L.has(uint8(li)) {
			return fmt.Errorf("hop %d label %q is outside L", i, h[1])
		}
		at = h[2]
		onWalk[at] = true
	}
	if at != t {
		return fmt.Errorf("walk ends at %q, not at the target %q", at, t)
	}
	if len(w.satisfiedBy) != len(vs) {
		return fmt.Errorf("%d satisfying vertices for %d constraints", len(w.satisfiedBy), len(vs))
	}
	for i, v := range w.satisfiedBy {
		if !onWalk[v] {
			return fmt.Errorf("satisfying vertex %q is not on the walk", v)
		}
		id, ok := m.V.lookup(v)
		if !ok || !vs[i][id] {
			return fmt.Errorf("satisfying vertex %q is not in V(S%d,G)", v, i+1)
		}
	}
	return nil
}
