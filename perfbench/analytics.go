package main

// The analytics workloads: one caller in a closed loop runs back-to-back
// passes of the suite through Engine.RunAlgorithm over the read-only,
// memory-mapped graph — the paper's own setting. analytics-csr runs the
// passes on the CSR containers, analytics-byte64 on the byte-coded ones.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"time"

	"sage"
)

// suiteGraphs returns the unweighted and weighted graphs of a format.
func (e *env) suiteGraphs(format string) (g, w *sage.Graph) {
	if format == "byte64" {
		return e.b64, e.b64W
	}
	return e.csr, e.csrW
}

// algoRun is one suite algorithm's outcome.
type algoRun struct {
	summary string
	value   any
	stats   sage.RunStats
	dur     time.Duration
}

// runSuite runs one pass of the suite on the given format: the SSSP
// algorithms start from src, the rest take their defaults.
func runSuite(ctx context.Context, eng *sage.Engine, e *env, format string, src uint32) (map[string]algoRun, error) {
	g, w := e.suiteGraphs(format)
	out := make(map[string]algoRun, len(suite))
	for _, a := range suite {
		gg := g
		if a == "bellmanford" {
			gg = w
		}
		t0 := time.Now()
		res, err := eng.RunAlgorithm(ctx, a, gg, sage.AlgoArgs{Src: src})
		if err != nil {
			return out, fmt.Errorf("%s on %s: %w", a, format, err)
		}
		out[a] = algoRun{summary: res.Summary, value: res.Value, stats: res.Stats, dur: time.Since(t0)}
	}
	return out, nil
}

// resultOf strips a summary's parenthesized work accounting, which
// legitimately differs between formats (tc's "total work" grows under
// byte coding); the result itself must not.
func resultOf(summary string) string {
	if i := strings.Index(summary, " ("); i >= 0 {
		return summary[:i]
	}
	return summary
}

// analyticsWindow is one timed window's figures.
type analyticsWindow struct {
	pass       opLog               // each pass's wall time
	algo       map[string]*samples // per-algorithm wall time, ms
	start, end time.Time
}

// analytics runs the workload on format for one or two timed windows
// (the second traced) and then its correctness checks.
func analytics(ctx context.Context, e *env, format string, seed uint64, seconds float64, trace bool, res *outcome) error {
	giant, err := largestComponent(ctx, e.csr)
	if err != nil {
		return err
	}
	src := pickSources(giant, seed, 1)[0]
	eng := sage.NewEngine()

	// Warm-up pass (untimed): page in the mapping, start the worker pool.
	first, err := runSuite(ctx, eng, e, format, src)
	res.attempt(len(suite), err)
	if err != nil {
		return err
	}
	varying := map[string]bool{}
	window := func() *analyticsWindow {
		w := &analyticsWindow{algo: map[string]*samples{}}
		for _, a := range suite {
			w.algo[a] = &samples{}
		}
		w.start = time.Now()
		w.end = w.start.Add(time.Duration(seconds * float64(time.Second)))
		for time.Now().Before(w.end) {
			t0 := time.Now()
			runs, err := runSuite(ctx, eng, e, format, src)
			w.pass.add(time.Now(), time.Since(t0))
			res.attempt(len(suite), err)
			for a, r := range runs {
				w.algo[a].addDur(r.dur)
				if r.summary != first[a].summary {
					res.fail("%s: pass summary %q differs from first pass %q", a, r.summary, first[a].summary)
				}
				if r.stats != first[a].stats {
					varying[a] = true
				}
			}
		}
		return w
	}
	untraced := window()
	res.e2e(&untraced.pass, untraced.start)
	if trace {
		traced := window()
		res.traced(&traced.pass, traced.start)
		for _, a := range suite {
			v := traced.algo[a].sorted()
			res.layer.set("algos."+a+".ms_p50", quantile(v, 0.5), len(v))
		}
	}

	// Check 1: the other format computes the same results.
	other := "byte64"
	if format == "byte64" {
		other = "csr"
	}
	cross, err := runSuite(ctx, eng, e, other, src)
	res.attempt(len(suite), err)
	for _, a := range suite {
		want := resultOf(first[a].summary)
		if res.corruptExpected {
			want = "corrupted " + want
		}
		res.check(resultOf(cross[a].summary) == want,
			"%s: %s summary %q, %s summary %q", a, format, want, other, cross[a].summary)
	}
	res.check(reflect.DeepEqual(cross["bellmanford"].value, first["bellmanford"].value),
		"bellmanford: %s and %s distances differ", format, other)

	// Check 2: PSAM counts repeat exactly across passes. The counts are
	// deterministic at one worker (the setting the repository's PSAM
	// goldens pin); at more workers some algorithms' counts depend on
	// scheduling, which psam.nondeterministic_algos reports.
	prev := sage.Workers()
	sage.SetWorkers(1)
	defer sage.SetWorkers(prev)
	p1, err1 := runSuite(ctx, eng, e, format, src)
	p2, err2 := runSuite(ctx, eng, e, format, src)
	res.attempt(len(suite), err1)
	res.attempt(len(suite), err2)
	var nvram, writes int64
	for _, a := range suite {
		s := p1[a].stats
		res.check(s == p2[a].stats, "%s: PSAM counts differ between two one-worker passes: %v vs %v", a, s, p2[a].stats)
		res.check(s.NVRAMWrites == 0, "%s: %d NVRAM writes in AppDirect mode", a, s.NVRAMWrites)
		res.layer.set("psam."+a+".nvram_words", float64(s.NVRAMReads), 1)
		res.layer.set("psam."+a+".peak_dram_words", float64(s.PeakDRAMWords), 1)
		nvram += s.NVRAMReads
		writes += s.NVRAMWrites
	}
	res.layer.set("psam.nvram_writes", float64(writes), 1)
	res.layer.set("psam.suite_nvram_mb", float64(nvram*8)/1e6, 1)
	res.layer.set("psam.nondeterministic_algos", float64(len(varying)), 1)
	return nil
}
