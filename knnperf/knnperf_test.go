package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// lastLine parses the result object a run prints last.
func lastLine(t *testing.T, res *result) (out struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}) {
	t.Helper()
	var buf bytes.Buffer
	if err := res.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return out
}

func TestWorkloadsMatchSpec(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, knnperf defines %d", len(s.Workloads), len(workloads))
	}
	for i, sw := range s.Workloads {
		if w := workloads[i]; sw.Name != w.name || sw.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), knnperf %q (%q)", i, sw.Name, sw.Why, w.name, w.why)
		}
	}
}

// TestSmoke runs every workload briefly, end to end and traced, and checks
// that every metric BENCHMARK.json names prints with its unit, that no call
// failed, and that the bypass predictions hold as exact counts.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	s := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			res, err := run(w, 7, 2*time.Second, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			out := lastLine(t, res)
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d calls failed (first error: %v)",
					w.name, traced, out.Correct, out.Failed, out.Attempted, res.firstErr)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w.name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, m.Name, got.Value)
				}
			}
			if !traced {
				continue
			}
			bypass := map[string]string{
				"scatter": "metricindex.contacts_per_query",
				"batch":   "metricindex.contacts_per_query",
				"pruned":  "node.mesh_epochs_per_query",
			}[w.name]
			if v := out.Metrics[bypass].Value; v != 0 {
				t.Errorf("%s: %s = %v, want exactly 0 (the workload bypasses that layer)", w.name, bypass, v)
			}
		}
	}
}

func TestRetrySetup(t *testing.T) {
	res := newResult(workloads[0], 1, time.Second, false)
	tries := 0
	v, _, err := retrySetup(res, func() (int, error) {
		if tries++; tries < setupAttempts {
			return 0, fmt.Errorf("attempt %d", tries)
		}
		return 42, nil
	})
	if err != nil || v != 42 || len(res.setupFailures) != setupAttempts-1 {
		t.Fatalf("got %d, %v, failures %q; want 42 after %d failures", v, err, res.setupFailures, setupAttempts-1)
	}
	if _, _, err := retrySetup(res, func() (int, error) { return 0, errors.New("down") }); err == nil {
		t.Fatal("no error after every attempt failed")
	}
}
