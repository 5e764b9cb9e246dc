package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"dmap/internal/experiments"
	"dmap/internal/stats"
)

func TestQuantileExactOnKnownSamples(t *testing.T) {
	// 1..1000 ns, shuffled: the nearest-rank q-quantile is exactly
	// ceil(q·1000) ns.
	d := make([]time.Duration, 1000)
	for i := range d {
		d[i] = time.Duration(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	sortDurations(d)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0, 1}, {0.001, 1}, {0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}, {1, 1000}} {
		if got := quantile(d, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A 10% shift of the upper half moves p99 by exactly 10%: no buckets.
	for i := 500; i < len(d); i++ {
		d[i] = d[i] * 11 / 10
	}
	if got := quantile(d, 0.99); got != 1089 {
		t.Errorf("shifted p99 = %v, want 1089", got)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

// benchSpec is the part of BENCHMARK.json the self-test checks.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsPrintDeclaredMetrics runs every workload of
// BENCHMARK.json at toy size, untraced and traced, and checks that the
// printed result names exactly the declared metrics with their units.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := map[string]string{}
			if trace == "0" {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", wl.Name, "--seed", "3", "--seconds", "0.4",
				"--trace", trace, "--toy", "--out", t.TempDir()}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s\n%s", wl.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%s: last line is not a result: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: printed %d metrics, declared %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%s: %s declared but not printed", wl.Name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%s: %s printed in %q, declared %q", wl.Name, trace, name, m.Unit, unit)
				}
			}
			if trace == "0" {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", wl.Name, name, m.Value)
					}
				}
			}
		}
	}
}

func TestCheckTableRejectsWrongRows(t *testing.T) {
	mk := func(vals map[int][]float64) *experiments.LatencyResult {
		r := &experiments.LatencyResult{PerK: map[int]*stats.Collector{}}
		for k, vs := range vals {
			c := stats.NewCollector(len(vs))
			for _, v := range vs {
				c.Add(v)
			}
			r.PerK[k] = c
		}
		return r
	}
	good := mk(map[int][]float64{1: {30, 40, 50}, 3: {20, 30, 40}, 5: {10, 30, 40}})
	if err := checkTable(good, 3); err != nil {
		t.Fatalf("good table rejected: %v", err)
	}
	for name, bad := range map[string]*experiments.LatencyResult{
		"K=5 slower":     mk(map[int][]float64{1: {30, 40, 50}, 3: {20, 30, 40}, 5: {20, 30, 60}}),
		"missing K":      mk(map[int][]float64{1: {30, 40, 50}, 3: {20, 30, 40}}),
		"lookup dropped": mk(map[int][]float64{1: {30, 40}, 3: {20, 30}, 5: {10, 30}}),
		"zero latency":   mk(map[int][]float64{1: {0, 0, 0}, 3: {0, 0, 0}, 5: {0, 0, 0}}),
	} {
		if err := checkTable(bad, 3); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestGoldenTableReproduces(t *testing.T) {
	got, err := goldenRun()
	if err != nil {
		t.Fatal(err)
	}
	if got != goldenTable {
		t.Fatalf("Table I golden mismatch:\ngot:\n%swant:\n%s", got, goldenTable)
	}
}
