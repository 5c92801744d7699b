// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It generates its dataset from --seed, sets up the system
// several times (timing each set-up), runs one workload for --seconds,
// checks the outputs, and prints every metric by name with its unit and
// sample count, ending with one JSON result line. With --trace 1 it runs
// the workload twice, untraced and then traced, and reports the per-layer
// metrics and the tracing overhead instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workloads names every workload the benchmark runs.
var workloads = []string{"analytics-csr", "analytics-byte64", "serve-read", "serve-mixed"}

// setups is how many times a run sets the system up; setup_s is the
// median of their durations.
const setups = 5

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workDir  string // scratch space for containers and WALs
	// corruptExpected alters every expected summary, so a correct run
	// must fail its checks (the self-test's proof that they bite).
	corruptExpected bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", ")+", or all of them in turn")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the dataset and the request streams are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of one timed window")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from an extra traced window")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "scratch directory for containers and WAL segments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloads
	}
	if !slices.Contains(workloads, names[0]) || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload all or one of %s, --trace 0|1, --seconds > 0\n", strings.Join(workloads, ", "))
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 0
	for _, w := range names {
		cfg.workload = w
		if err := runWorkload(ctx, cfg, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload and prints its result.
func runWorkload(ctx context.Context, cfg config, stdout io.Writer) error {
	// A run must end within 180 s; give up (and fail) before that.
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	res, fp, err := execute(ctx, cfg)
	if err != nil {
		return err
	}
	return printResult(stdout, cfg, res, fp)
}

// outcome accumulates one run's checks and figures.
type outcome struct {
	tr              *tracer
	corruptExpected bool

	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string

	e2eRep report // end-to-end metrics
	layer  report // per-layer metrics
}

// attempt counts n operations, one of them failed when err is set.
func (o *outcome) attempt(n int, err error) {
	o.mu.Lock()
	o.attempted += int64(n)
	o.mu.Unlock()
	if err != nil {
		o.fail("%v", err)
	}
}

// fail counts one failure of an operation already attempted.
func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check, failed unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempt(1, nil)
	if !ok {
		o.fail(format, args...)
	}
}

// e2e records the untraced window's operations.
func (o *outcome) e2e(l *opLog, start time.Time) {
	all, rate := l.summarize(start)
	p50 := quantile(all, 0.5)
	o.e2eRep.set("op_ms_p50", p50, len(all))
	o.e2eRep.set("ops_per_s", rate, len(all))
	o.layer.set("op_ms_p90", quantile(all, 0.9), len(all))
	o.layer.set("untraced.op_ms_p50", p50, len(all))
	o.layer.set("untraced.ops_per_s", rate, len(all))
}

// traced records the traced window's operations next to the untraced
// ones.
func (o *outcome) traced(l *opLog, start time.Time) {
	all, rate := l.summarize(start)
	p50 := quantile(all, 0.5)
	o.layer.set("traced.op_ms_p50", p50, len(all))
	o.layer.set("traced.ops_per_s", rate, len(all))
	base := o.layer["untraced.op_ms_p50"].v
	o.layer.set("trace.overhead_pct", 100*ratio(p50-base, base), len(all))
}

// execute sets up the system setups times, runs the workload on the last set-up,
// and tears everything down.
func execute(ctx context.Context, cfg config) (*outcome, fingerprint, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, fingerprint{}, err
	}
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("perfbench-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fingerprint{}, err
	}
	defer os.RemoveAll(dir)

	res := &outcome{corruptExpected: cfg.corruptExpected, e2eRep: report{}, layer: report{}}
	for _, d := range perLayer {
		res.layer.set(d.name, 0, 0) // a layer this workload does not exercise reads 0
	}
	if cfg.trace {
		res.tr = &tracer{}
	}

	var e *env
	var setupS, gen, create, open, recover, start []float64
	for i := 0; i < setups; i++ {
		if ctx.Err() != nil {
			return nil, fingerprint{}, ctx.Err()
		}
		t0 := time.Now()
		x, err := setUp(filepath.Join(dir, fmt.Sprintf("setup%d", i)), cfg.seed, res.tr)
		if err != nil {
			return nil, fingerprint{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		gen, create, open = append(gen, x.genS), append(create, x.createS), append(open, x.openMS)
		recover, start = append(recover, x.recoverMS), append(start, x.startMS)
		if i < setups-1 {
			if err := x.close(); err != nil {
				return nil, fingerprint{}, fmt.Errorf("tear-down: %w", err)
			}
			continue
		}
		e = x
	}
	res.e2eRep.set("setup_s", median(setupS), len(setupS))
	res.layer.set("gen.rmat_s", median(gen), len(gen))
	res.layer.set("store.create_s", median(create), len(create))
	res.layer.set("store.open_ms", median(open), len(open))
	res.layer.set("server.recover_ms", median(recover), len(recover))
	res.layer.set("cluster.start_ms", median(start), len(start))
	fp := hostFingerprint(root, e.replicas[0].dir)
	debug.FreeOSMemory()
	resetPeakRSS()

	switch cfg.workload {
	case "analytics-csr":
		err = analytics(ctx, e, "csr", cfg.seed, cfg.seconds, cfg.trace, res)
	case "analytics-byte64":
		err = analytics(ctx, e, "byte64", cfg.seed, cfg.seconds, cfg.trace, res)
	default:
		err = serve(ctx, e, cfg.workload, cfg.seed, cfg.seconds, cfg.trace, res)
	}
	err = errors.Join(err, e.close(), ctx.Err())
	if err != nil {
		return nil, fp, err
	}
	res.e2eRep.set("max_rss_mb", peakRSSMB(), 1)
	res.layer.set("error_ratio", ratio(float64(res.failed), float64(res.attempted)), int(res.attempted))
	return res, fp, nil
}

// printResult writes the human-readable report and the final JSON line.
func printResult(w io.Writer, cfg config, res *outcome, fp fingerprint) error {
	header, _ := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "host": fp,
	})
	fmt.Fprintf(w, "run %s\n", header)
	fmt.Fprintf(w, "checks: attempted=%d failed=%d error_ratio=%.6f\n",
		res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)))
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	fmt.Fprintln(w, "end-to-end:")
	if err := printTable(w, endToEnd, res.e2eRep); err != nil {
		return err
	}
	defs, rep := endToEnd, res.e2eRep
	if cfg.trace {
		fmt.Fprintln(w, "per-layer (traced window):")
		if err := printTable(w, perLayer, res.layer); err != nil {
			return err
		}
		defs, rep = perLayer, res.layer
	}
	line, err := resultLine(defs, rep, res.attempted, res.failed, res.failed == 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}
