// Command sirobench is the siro benchmark. One invocation runs one
// named workload against the real public entry points of the
// translation service and prints its metrics; the last line of standard
// output is the machine-readable result:
//
//	go run . --workload hot-warm --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the separate traced run: it records spans around every layer call
// the benchmark makes and reports the per-layer ledger instead. See
// README.md for the workloads, the metric map and the latency limits.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/scenario"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload,
// each with a bound in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_heap_mb", "MB"},
}

// unbounded are end-to-end figures an untraced run prints, and records
// in the stamp, without a bound, on the workloads they apply to:
// fail_ratio and slo_miss_ratio (serve-mixed) are 0 when all is well;
// the tail moved by more than any usable bound between runs on a shared
// 2-core machine; and mb_per_s (giant-stream, serve-mixed) tells no
// more than the bounded ops_per_s on a fixed set of replayed inputs
// (README.md).
var unbounded = []metricDef{
	{"tail_ms", "ms"},
	{"fail_ratio", "ratio"},
	{"mb_per_s", "MB/s"},
	{"slo_miss_ratio", "ratio"},
}

// perLayer are the metrics a traced run reports, named after the
// module each belongs to.
var perLayer = []metricDef{
	{"synth.fingerprint_us", "us"},
	{"synth.fingerprint_allocs", "count"},
	{"cache.lookup_us", "us"},
	{"service.queue_us", "us"},
	{"service.queue_high_water", "count"},
	{"irtext.parse_us", "us"},
	{"irtext.parse_allocs", "count"},
	{"irtext.write_us", "us"},
	{"irtext.write_allocs", "count"},
	{"irtext.detect_us", "us"},
	{"irtext.stream_parse_mb_s", "MB/s"},
	{"translator.translate_us", "us"},
	{"translator.translate_allocs", "count"},
	{"synth.pair_ms", "ms"},
	{"synth.gen_ms", "ms"},
	{"synth.profile_ms", "ms"},
	{"synth.enum_ms", "ms"},
	{"synth.validate_ms", "ms"},
	{"synth.refine_ms", "ms"},
	{"synth.complete_ms", "ms"},
	{"synth.gencache_hits", "count/pair"},
	{"synth.neighbor_seeded", "count/pair"},
	{"synth.neighbor_fallbacks", "count/pair"},
	{"http.overhead_us", "us"},
	{"tenant.gateway_us", "us"},
	{"jobs.submit_ms", "ms"},
	{"jobs.complete_ms", "ms"},
	{"journal.appends_per_op", "count"},
	{"journal.fsyncs_per_op", "count"},
	{"governor.wait_ms", "ms"},
	{"governor.parked", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// result accumulates one run's outcome.
type result struct {
	attempted int
	failed    int      // unexpected outcomes plus operations whose output the oracle rejected
	wrong     []string // oracle rejections, for the report
	metrics   map[string]float64
	spreads   map[string]float64 // interquartile range / median over the run's windows
	notes     map[string]any
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, spreads: map[string]float64{}, notes: map[string]any{}}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// setWindows reports the median of per-window values and records their
// spread.
func (r *result) setWindows(name string, ws []float64) {
	r.metrics[name] = median(ws)
	r.spreads[name] = spread(ws)
}

func (r *result) note(key string, v any) { r.notes[key] = v }

// reject records a wrong output produced by n operations.
func (r *result) reject(n int, format string, args ...any) {
	r.failed += n
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

// env is what a workload is handed: its seed, its time budget, and a
// private scratch directory.
type env struct {
	seed     int64
	seconds  time.Duration
	dir      string
	manifest *scenario.Manifest
	tr       *tracer // nil on untraced runs
}

// instance is one set-up workload, ready to be timed.
type instance interface {
	// timed runs the timed phase for about d and reports the
	// end-to-end metrics into r. tr is nil when not tracing.
	timed(d time.Duration, tr *tracer, r *result) error
	// check runs the output oracle over everything the timed phases
	// produced, outside any timed region.
	check(r *result)
	// ledger times each layer's public functions on this workload's
	// inputs, for the traced run.
	ledger(tr *tracer, r *result) error
	close()
}

type workload struct {
	name   string
	setups int // set-ups per run; setup_s is their median
	setup  func(e *env) (instance, error)
}

// workloads, each stressing different layers (README.md gives the
// reasons). A quick set-up is repeated more often so its median is
// steady.
var workloads = []workload{
	{name: "hot-warm", setups: 9, setup: setupHot},
	{name: "serve-mixed", setups: 7, setup: setupServe},
	{name: "giant-stream", setups: 9, setup: setupGiant},
	{name: "matrix-cold", setups: 51, setup: setupMatrix},
}

func main() {
	name := flag.String("workload", "", "workload to run: hot-warm, serve-mixed, giant-stream, matrix-cold")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "sirobench"), "directory for scratch state and span dumps")
	flag.Parse()

	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sirobench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func (r *result) correct() bool { return r.failed == 0 && len(r.wrong) == 0 }

// run executes one workload and writes the report to w: one line per
// metric, a stamp line, and the summary as the final line. It returns
// an error, printing no summary, when the workload could not run or a
// metric is missing.
func run(name string, seed int64, seconds time.Duration, traced bool, outDir string, w io.Writer) (*result, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	manifest, err := scenario.Load()
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	e := &env{seed: seed, seconds: seconds, dir: runDir, manifest: manifest}
	if traced {
		e.tr = newTracer()
	}
	r := newResult()
	if err := measure(wl, e, r); err != nil {
		return nil, err
	}

	defs := endToEnd
	if traced {
		defs = perLayer
		spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := e.tr.write(spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		r.note("spans_file", spans)
	}
	sum := summary{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]map[string]any{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
		sum.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Fprintf(w, "%-28s %14.4f %s\n", d.name, v, d.unit)
	}
	r.set("fail_ratio", float64(r.failed)/math.Max(1, float64(r.attempted)))
	extra := map[string]map[string]any{}
	if !traced {
		for _, d := range unbounded {
			if v, ok := r.metrics[d.name]; ok {
				extra[d.name] = map[string]any{"value": v, "unit": d.unit}
				fmt.Fprintf(w, "%-28s %14.4f %s (no bound)\n", d.name, v, d.unit)
			}
		}
	}
	for _, msg := range r.wrong {
		fmt.Fprintln(w, "WRONG:", msg)
	}

	stamp := map[string]any{
		"workload":    name,
		"seed":        seed,
		"traced":      traced,
		"seconds":     seconds.Seconds(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"num_cpu":     runtime.NumCPU(),
		"go_version":  runtime.Version(),
		"commit":      commit(),
		"source_hash": sourceHash(),
		"spread":      r.spreads,
		"unbounded":   extra,
	}
	for k, v := range r.notes {
		stamp[k] = v
	}
	if err := writeJSONLine(w, map[string]any{"stamp": stamp}); err != nil {
		return nil, err
	}
	return r, writeJSONLine(w, sum)
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// measure sets the workload up several times (setup_s is the median),
// then runs the timed phase on the last set-up, then the oracle.
//
// An untraced run times the whole budget. A traced run splits it into
// untraced and traced quarters of the same phase, whose CPU per
// operation gives trace.overhead_pct, then runs the per-layer ledger.
func measure(wl *workload, e *env, r *result) error {
	var inst instance
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	var setups []float64
	for i := 0; i < wl.setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		start := time.Now()
		next, err := wl.setup(e)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		inst = next
		setups = append(setups, time.Since(start).Seconds())
	}
	r.setWindows("setup_s", setups)
	runtime.GC() // every timed phase starts from a collected heap

	if e.tr == nil {
		if err := inst.timed(e.seconds, nil, r); err != nil {
			return err
		}
	} else {
		// Untraced, traced, traced, untraced: a quarter each, so a
		// steady drift in machine speed cancels out of the overhead.
		phases := []*result{newResult(), newResult(), newResult(), newResult()}
		for i, ph := range phases {
			var tr *tracer
			if i == 1 || i == 2 {
				tr = e.tr
			}
			runtime.GC()
			if err := inst.timed(e.seconds/4, tr, ph); err != nil {
				return err
			}
			r.attempted += ph.attempted
			r.failed += ph.failed
			for k, v := range ph.notes {
				r.note(k, v)
			}
		}
		cpu := func(i int) float64 { return phases[i].metrics["cpu_ms_per_op"] }
		plain, traced := cpu(0)+cpu(3), cpu(1)+cpu(2)
		r.set("trace.overhead_pct", 100*(traced/plain-1))
		for _, d := range perLayer {
			a, okA := phases[1].metrics[d.name]
			b, okB := phases[2].metrics[d.name]
			if okA && okB {
				r.set(d.name, (a+b)/2) // measured on the workload's own traced phases
			}
		}
		phase := map[string]float64{}
		for name, xs := range e.tr.selfTimes(0, ledgerOps) {
			phase[name] = median(xs)
		}
		r.note("phase_self_us", phase)
		if err := inst.ledger(e.tr, r); err != nil {
			return fmt.Errorf("%s ledger: %w", wl.name, err)
		}
		r.note("traced_cpu_ms_per_op", traced/2)
		r.note("untraced_cpu_ms_per_op", plain/2)
	}
	inst.check(r)
	return nil
}

// commit names the source revision: SIROBENCH_COMMIT when the caller
// knows it (run.sh sets it from git when there is a repository), else
// "unknown".
func commit() string {
	if c := os.Getenv("SIROBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// sourceHash digests the Go sources of the module under test, so two
// results can be matched to the code they measured even outside a git
// checkout. The module root is the working directory when run from the
// checkout root, or the parent when run from the benchmark's directory.
func sourceHash() string {
	root := "."
	if _, err := os.Stat("internal"); err != nil {
		root = ".."
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
