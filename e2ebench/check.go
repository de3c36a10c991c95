package main

import (
	"fmt"
	"strings"

	"lscr/api"
)

// checker verifies responses against one model state.
type checker struct {
	m    *model
	seen map[string]bool // witnesses already verified, by request fields and content
}

func newChecker(m *model) *checker { return &checker{m: m, seen: map[string]bool{}} }

// verdict checks a response to q given the oracle's answer want and
// V(S,G) of each of q's constraints on the same graph state. It returns
// "" when the response is correct and the reason otherwise.
func (ck *checker) verdict(q request, resp api.QueryResponse, want bool, vs []map[int32]bool) string {
	if resp.Reachable != want {
		return fmt.Sprintf("answer %v, oracle says %v", resp.Reachable, want)
	}
	if len(q.cons) == 1 && resp.Algorithm == "ins" && resp.SatisfyingVertices != len(vs[0]) {
		return fmt.Sprintf("|V(S,G)| reported %d, oracle has %d", resp.SatisfyingVertices, len(vs[0]))
	}
	w := resp.Witness
	switch {
	case !resp.Reachable && w != nil:
		return "witness on a false answer"
	case resp.Reachable && q.wire.Witness && w == nil:
		return "no witness on a true answer that asked for one"
	case w == nil:
		return ""
	}
	// The key holds everything the witness is checked against: the
	// endpoints, L and the constraint texts, which fix V(S,G).
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%v|%q|%q|", q.wire.Source, q.wire.Target, q.wire.Labels, q.wire.Constraint, q.wire.Constraints)
	ww := witness{satisfiedBy: w.SatisfiedBy}
	for _, h := range w.Hops {
		ww.hops = append(ww.hops, [3]string{h.From, h.Label, h.To})
		fmt.Fprintf(&b, "%s %s %s;", h.From, h.Label, h.To)
	}
	fmt.Fprint(&b, w.SatisfiedBy)
	key := b.String()
	if ck.seen[key] {
		return ""
	}
	if err := ck.m.checkWitness(q.wire.Source, q.wire.Target, q.wire.Labels, vs, ww); err != nil {
		return "bad witness: " + err.Error()
	}
	ck.seen[key] = true
	return ""
}

// vsets returns V(S,G) of each of q's constraints as sets.
func (q request) vsets() []map[int32]bool {
	out := make([]map[int32]bool, len(q.cons))
	for i, c := range q.cons {
		out[i] = c.vsSet
	}
	return out
}

// checkSample counts one closed-loop query and checks it against the
// request's oracle answer.
func (r *run) checkSample(ck *checker, reqs []request, s sample) {
	c := r.op("query")
	c.attempted++
	if s.err != nil {
		c.failed++
		r.wrong("query %d failed: %v", s.req, s.err)
		return
	}
	q := reqs[s.req]
	if why := ck.verdict(q, s.resp, q.want, q.vsets()); why != "" {
		r.wrong("query %d %s -> %s %v %q: %s", s.req, q.wire.Source, q.wire.Target, q.wire.Labels, q.wire.Constraint+strings.Join(q.wire.Constraints, " AND "), why)
	}
}
