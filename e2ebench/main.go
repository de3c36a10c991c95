// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload against the program as lscrd runs it — the server handler
// with lscrd's defaults on a loopback listener, reached through the
// typed client — checks every answer against its own oracle, and prints
// a report followed by one JSON line:
//
//	e2ebench -workload d1-serve -seed 1 -seconds 20 -trace 0
//
// With -trace 1 it instead replays the workload's requests one layer at
// a time and reports per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// spec describes one workload.
type spec struct {
	name         string
	universities int  // LUBM size
	readers      int  // closed-loop /v1/query clients
	setupReps    int  // set-ups per run; setup_s is their median
	requests     int  // generated request set size
	varied       bool // Table 3 templates with varied constants, one text per request
	write        bool // persistent store plus an open-loop /v1/mutate writer
	falseEvery   int  // genConfig.falseEvery
}

var specs = []spec{
	{name: "d1-serve", universities: 1, readers: 2, setupReps: 15, requests: 3000},
	{name: "lubm-large-search", universities: 20, readers: 2, setupReps: 5, requests: 2000, varied: true},
	{name: "lubm-write-mix", universities: 2, readers: 1, setupReps: 15, requests: 4500, write: true, falseEvery: 4},
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and collects its output.
type run struct {
	spec    spec
	seed    int64
	seconds float64
	dir     string // scratch directory inside the checkout, removed at exit
	rng     *rand.Rand

	metrics  map[string]metric
	report   []string
	problems []string // failed correctness checks
	ops      map[string]*opCount
	opMu     sync.Mutex
	started  time.Time
}

// phase notes how long the run has taken so far.
func (r *run) phase(name string) {
	r.note("time: %s done at %.1f s", name, time.Since(r.started).Seconds())
}

type opCount struct{ attempted, failed int }

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// extra reports a figure in the human-readable report only: the result
// line carries exactly the metrics BENCHMARK.json registers.
func (r *run) extra(name string, v float64, unit string) {
	r.note("metric %-32s %14.6g %s (report only)", name, v, unit)
}

func (r *run) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// wrong records a failed correctness check; the first few are kept
// verbatim, the rest only counted.
func (r *run) wrong(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 20 {
		r.problems = append(r.problems, "(further failures not shown)")
	}
}

// opSafe returns a recorder for one operation of the given kind that
// may be called from another goroutine.
func (r *run) opSafe(kind string) func(failed bool) {
	r.opMu.Lock()
	c := r.op(kind)
	r.opMu.Unlock()
	return func(failed bool) {
		r.opMu.Lock()
		c.attempted++
		if failed {
			c.failed++
		}
		r.opMu.Unlock()
	}
}

func (r *run) op(kind string) *opCount {
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	return c
}

func main() {
	workload := flag.String("workload", "", "workload name: d1-serve, lubm-large-search or lubm-write-mix")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same graph, requests and writes")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 replays the requests layer by layer and reports per-layer metrics")
	workDir := flag.String("workdir", ".bench_build/work", "scratch directory for generated inputs and stores")
	flag.Parse()

	var sp *spec
	for i := range specs {
		if specs[i].name == *workload {
			sp = &specs[i]
		}
	}
	if sp == nil {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown -workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*workDir, sp.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	r := &run{
		spec: *sp, seed: *seed, seconds: *seconds, dir: dir,
		rng: rand.New(rand.NewSource(*seed)), started: time.Now(),
		metrics: map[string]metric{}, ops: map[string]*opCount{},
	}
	if *trace == 1 {
		err = r.traced()
	} else if sp.write {
		err = r.writeMix()
	} else {
		err = r.readOnly()
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	r.print()
	if len(r.problems) > 0 {
		os.Exit(1)
	}
}

// print writes the report and the result line.
func (r *run) print() {
	fmt.Printf("workload %s seed %d seconds %g nproc %d GOMAXPROCS %d %s\n",
		r.spec.name, r.seed, r.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, line := range r.report {
		fmt.Println(line)
	}
	res := result{Correct: len(r.problems) == 0, Metrics: r.metrics}
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := r.ops[k]
		fmt.Printf("ops %-8s attempted %d failed %d\n", k, c.attempted, c.failed)
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-32s %14.6g %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	for _, p := range r.problems {
		fmt.Println("WRONG:", p)
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
}

// path returns a file name inside the run's scratch directory.
func (r *run) path(name string) string { return filepath.Join(r.dir, name) }

// join renders a list for the report.
func join[T any](xs []T) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, " ")
}
