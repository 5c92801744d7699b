package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runBrief runs one workload briefly and returns its output lines.
func runBrief(t *testing.T, workload string, trace string) []string {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "3", "--trace", trace,
		"--workdir", t.TempDir()}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s: exit %d: %s", workload, code, errb.String())
	}
	return strings.Split(strings.TrimSpace(out.String()), "\n")
}

// tableCounts maps each printed metric line's name to its sample count.
func tableCounts(lines []string) map[string]string {
	out := map[string]string{}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 4 && strings.HasPrefix(f[3], "n=") {
			out[f[0]] = f[3]
		}
	}
	return out
}

func lastResult(t *testing.T, lines []string) resultJSON {
	t.Helper()
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

func checkMetrics(t *testing.T, defs []metricDef, res resultJSON) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing from the result", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestWorkloadsBrief runs every workload briefly, traced: each passes its
// checks and prints every named metric with a unit and a sample count.
func TestWorkloadsBrief(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			lines := runBrief(t, w, "1")
			res := lastResult(t, lines)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("checks: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, strings.Join(lines, "\n"))
			}
			checkMetrics(t, perLayer, res)
			counts := tableCounts(lines)
			for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				if _, ok := counts[d.name]; !ok {
					t.Errorf("metric %s not printed with a sample count", d.name)
				}
			}
			for _, d := range endToEnd {
				if counts[d.name] == "n=0" {
					t.Errorf("end-to-end metric %s has no samples", d.name)
				}
			}
			if counts["trace.unbalanced_requests"] != "" && res.Metrics["trace.unbalanced_requests"].Value != 0 {
				t.Errorf("%v requests' self times do not sum to their client span", res.Metrics["trace.unbalanced_requests"].Value)
			}
		})
	}
}

// TestEndToEndResult runs every workload untraced in one invocation: each
// prints a result line with exactly the end-to-end metrics, none of them
// zero.
func TestEndToEndResult(t *testing.T) {
	results := 0
	for _, l := range runBrief(t, "all", "0") {
		if !strings.HasPrefix(l, "{") {
			continue
		}
		results++
		res := lastResult(t, []string{l})
		checkMetrics(t, endToEnd, res)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
			}
		}
	}
	if results != len(workloads) {
		t.Errorf("%d result lines, want one per workload (%d)", results, len(workloads))
	}
}

// TestCorruptedExpectationCaught alters every expected summary: each
// workload's checks must catch it and raise error_ratio.
func TestCorruptedExpectationCaught(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			res, _, err := execute(context.Background(), config{
				workload: w, seed: 7, seconds: 0.3, workDir: t.TempDir(), corruptExpected: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed == 0 || res.layer["error_ratio"].v <= 0 {
				t.Fatalf("corrupted expectations went unnoticed: attempted=%d failed=%d", res.attempted, res.failed)
			}
		})
	}
}

func TestUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metric
// tables and workload list here.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
	toJSON := func(defs []metricDef, withBound bool) []metric {
		var out []metric
		for _, d := range defs {
			m := metric{Name: d.name, Unit: d.unit, Better: d.better}
			if withBound {
				bound := d.bound
				m.Bound = &bound
			}
			out = append(out, m)
		}
		return out
	}
	for _, c := range []struct {
		key       string
		got, want []metric
	}{
		{"end_to_end", bj.EndToEnd, toJSON(endToEnd, true)},
		{"per_layer", bj.PerLayer, toJSON(perLayer, false)},
	} {
		got, _ := json.Marshal(c.got)
		want, _ := json.Marshal(c.want)
		if !bytes.Equal(got, want) {
			t.Errorf("BENCHMARK.json %s differs from metrics.go; want\n%s", c.key, want)
		}
	}
}
