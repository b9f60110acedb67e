// Command knnperf is distknn's end-to-end serving benchmark. It drives one
// named workload closed-loop against a loopback serving deployment (k
// resident nodes, a frontend and one multiplexed client connection, all in
// this process), checks every answer against a brute-force oracle, and
// prints its metrics by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 it reports the end-to-end metrics a user of the library
// sees; with --trace 1 it reports the per-layer metrics instead, read from
// the frontend's trace spans, the Metrics registries and benchmark-side
// timing of direct calls into each layer. Run it from the repository root:
//
//	bash knnperf/run.sh --workload scatter --seed 1 --seconds 10 --trace 0
//
// The workloads, the layers each one loads and bypasses, and the
// end-to-end metric each per-layer metric should move are documented in
// knnperf/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed of the data set and the query stream")
	seconds := flag.Float64("seconds", 10, "length of the measurement, at least one second")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w := lookup(*name)
	if w == nil || *seconds < sliceLen.Seconds() || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "knnperf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "knnperf: %v\n", err)
		os.Exit(1)
	}
	if !res.correct() {
		fmt.Fprintf(os.Stderr, "knnperf: %s: %d of %d calls failed or answered wrong (first error: %v)\n",
			w.name, res.failed, res.attempted, res.firstErr)
		os.Exit(1)
	}
}

// run measures workload w at seed for d, end to end or traced.
func run(w *workload, seed uint64, d time.Duration, traced bool) (*result, error) {
	r := w.newBench(w, seed)
	if traced {
		return r.traced(d)
	}
	return r.endToEnd(d)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metric is one reported number; note says what it was measured over.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is one run's outcome.
type result struct {
	w       *workload
	seed    uint64
	seconds float64
	traced  bool

	attempted     int // calls attempted
	failed        int // calls that errored or answered differently from the oracle
	firstErr      error
	setupFailures []string // deployments whose set-up failed and was retried
	metrics       []metric
}

func newResult(w *workload, seed uint64, d time.Duration, traced bool) *result {
	return &result{w: w, seed: seed, seconds: d.Seconds(), traced: traced}
}

func (r *result) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, note: note})
}

func (r *result) correct() bool { return r.attempted > 0 && r.failed == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one line per metric, the run metadata as a JSON line, and
// the result object as the last line.
func (r *result) print(f io.Writer) error {
	samples := make(map[string]string, len(r.metrics))
	metrics := make(map[string]jsonMetric, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(f, "%-34s %16.6f %-6s %s\n", m.name, m.value, m.unit, m.note)
		samples[m.name] = m.note
		metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	failedShare := float64(r.failed) / float64(max(r.attempted, 1))
	setupFailures := append([]string{}, r.setupFailures...)
	fmt.Fprintf(f, "%-34s %16.6f %-6s %d of %d calls\n", "failed_share", failedShare, "ratio", r.failed, r.attempted)
	fmt.Fprintf(f, "%-34s %16d %-6s retried deployments\n", "setup_failures", len(r.setupFailures), "count")
	meta := map[string]any{
		"benchmark":      "knnperf",
		"workload":       r.w.name,
		"seed":           r.seed,
		"seconds":        r.seconds,
		"trace":          r.traced,
		"failed_share":   failedShare,
		"setup_failures": setupFailures,
		"parameters": map[string]any{
			"nodes": r.w.k, "points_per_node": perNode, "l": r.w.l, "callers": r.w.callers,
			"points_per_call": r.w.batch, "query_pool": queryPool, "tail_percentile": r.w.tail * 100,
			"loop": "closed", "shape": r.w.params,
		},
		"loads":      r.w.loads,
		"bypasses":   r.w.bypasses,
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     commit(),
		"samples":    samples,
	}
	if r.firstErr != nil {
		meta["first_error"] = r.firstErr.Error()
	}
	line, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "%s\n", line)
	line, err = json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

// commit is the VCS revision the binary was built from, when the build
// ran inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
