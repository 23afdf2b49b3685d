package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/version"
)

// matrix-cold: a fresh Service over an empty cache directory warms all
// 210 ordered version pairs with WarmMatrix, neighbour memo and cost
// model at their defaults. One operation is one pair.
type matrixCold struct {
	e       *env
	svc     *service.Service // set up, not yet used by a timed matrix
	last    *service.Service // the most recent timed matrix's service
	lastRec *synthRecorder   // the most recent traced matrix's recorder
	pairs   []version.Pair
	made    int

	checks  map[version.Pair]pairCheck // oracle inputs, built on first use
	samples []input                    // matrix kitchen sinks, for the ledger

	wrong        []string
	failed       int
	pairsChecked int
}

// pairCheck is the oracle input for one pair: its corpus entry, or a
// corpus test where the pair has no entry.
type pairCheck struct {
	name string
	mod  *ir.Module // at the source version
}

// setupMatrix only constructs the service: set-up time is what a fresh
// Service over an empty cache directory costs before its first warm.
// The oracle's inputs are prepared outside the timed set-up.
func setupMatrix(e *env) (instance, error) {
	mc := &matrixCold{e: e}
	svc, err := mc.newService(nil)
	if err != nil {
		return nil, err
	}
	mc.svc = svc
	mc.pairs = svc.MatrixPairs()
	return mc, nil
}

// prepare builds the oracle's inputs once: every ok corpus entry,
// grouped by pair, one picked per pair by the seed; pairs without an
// entry get a seeded pick from the corpus tests at their source version.
func (mc *matrixCold) prepare() error {
	if mc.checks != nil {
		return nil
	}
	ok, err := inputs(mc.e.manifest, scenario.ClassMatrix, scenario.ClassHot, scenario.ClassLongtail, scenario.ClassMedium)
	if err != nil {
		return err
	}
	byPair := map[version.Pair][]input{}
	for _, in := range ok {
		byPair[in.pair()] = append(byPair[in.pair()], in)
		if in.class == scenario.ClassMatrix {
			mc.samples = append(mc.samples, in)
		}
	}
	checks := map[version.Pair]pairCheck{}
	tests := map[version.V][]*ir.Module{}
	rng := rand.New(rand.NewSource(mc.e.seed))
	for _, p := range mc.pairs {
		if cands := byPair[p]; len(cands) > 0 {
			in := cands[rng.Intn(len(cands))]
			m, err := irtext.Parse(in.text, in.src)
			if err != nil {
				return fmt.Errorf("entry %s: %w", in.name, err)
			}
			checks[p] = pairCheck{name: in.name, mod: m}
			continue
		}
		if _, done := tests[p.Source]; !done {
			for _, tc := range corpus.Tests(p.Source) {
				tests[p.Source] = append(tests[p.Source], tc.Module)
			}
		}
		ts := tests[p.Source]
		k := rng.Intn(len(ts))
		checks[p] = pairCheck{name: fmt.Sprintf("corpus test %d at %s", k, p.Source), mod: ts[k]}
	}
	mc.checks = checks
	return nil
}

// newService builds a service over an empty cache directory.
func (mc *matrixCold) newService(rec *synthRecorder) (*service.Service, error) {
	mc.made++
	dir, err := freshDir(mc.e, "matrix", fmt.Sprintf("cache-%d", mc.made))
	if err != nil {
		return nil, err
	}
	return service.New(service.Config{CacheDir: dir, SynthFn: rec.fn()}), nil
}

func (mc *matrixCold) close() {
	if mc.svc != nil {
		mc.svc.Close()
	}
	if mc.last != nil {
		mc.last.Close()
	}
}

// timed warms whole matrices until the next would overrun d (at least
// one). Every metric is the median over the matrices of its value for
// one matrix (p50_ms and tail_ms over that matrix's 210 pairs).
func (mc *matrixCold) timed(d time.Duration, tr *tracer, r *result) error {
	if err := mc.prepare(); err != nil {
		return err
	}
	ctx := context.Background()
	s := startSampler(time.Second)
	var opsW, cpuW, heapW, p50W, tailW []float64
	for {
		if mc.last != nil {
			// One service at a time, so every matrix starts from the
			// same heap.
			mc.last.Close()
			mc.last = nil
		}
		svc, rec := mc.svc, newSynthRecorder(tr)
		mc.svc = nil
		if svc == nil || rec != nil {
			if svc != nil {
				svc.Close()
			}
			var err error
			if svc, err = mc.newService(rec); err != nil {
				return err
			}
		}
		if rec != nil {
			for i, p := range mc.pairs {
				rec.opOf[p] = int64(i)
			}
		}
		var ops []opRec
		n, errs := 0, 0
		// Every matrix starts from a collected heap, without the
		// previous matrix's service or oracle check in it.
		runtime.GC()
		s.takePeak()
		start, cpu0 := time.Now(), cpuTime()
		last := start
		_, err := svc.WarmMatrix(ctx, func(p version.Pair, err error) {
			now := time.Now()
			tr.record("service.warm", int64(n+errs), -1, last, now.Sub(last))
			if err != nil {
				errs++
				r.note("first_error", fmt.Sprintf("%s: %v", p, err))
			} else {
				n++
				ops = append(ops, opRec{end: now.Sub(s.start), latency: now.Sub(last)})
			}
			last = now
		})
		wall, cpu := time.Since(start), cpuTime()-cpu0
		r.attempted += n + errs
		r.failed += errs
		if err != nil {
			svc.Close()
			return err
		}
		opsW = append(opsW, float64(n)/wall.Seconds())
		cpuW = append(cpuW, float64(cpu)/1e6/float64(max(1, n)))
		heapW = append(heapW, s.takePeak())
		p50, tail, pct, beyond := latencies(ops)
		p50W, tailW = append(p50W, p50), append(tailW, tail)
		r.note("tail_percentile", pct)
		r.note("tail_samples_beyond", beyond)
		mc.last = svc
		if rec != nil {
			mc.lastRec = rec
		}
		mc.checkMatrix(svc)
		if time.Since(s.start)+wall > d {
			break
		}
	}
	s.finish()
	r.setWindows("p50_ms", p50W)
	r.setWindows("tail_ms", tailW)
	r.setWindows("peak_heap_mb", heapW)
	r.note("peak_heap_mb_by_matrix", heapW)
	r.setWindows("ops_per_s", opsW)
	r.setWindows("cpu_ms_per_op", cpuW)
	r.note("matrices", len(opsW))
	r.set("loadgen.late_p99_ms", 0)
	return nil
}

// checkMatrix translates each pair's oracle input with the matrix's
// freshly synthesized translators and checks the output by
// differential execution.
func (mc *matrixCold) checkMatrix(svc *service.Service) {
	for _, p := range mc.pairs {
		c := mc.checks[p]
		mc.pairsChecked++
		res, err := svc.TranslateResult(context.Background(), p.Source, p.Target, c.mod)
		if err != nil {
			mc.failed++
			mc.wrong = append(mc.wrong, fmt.Sprintf("%s: translating %s: %v", p, c.name, err))
			continue
		}
		out, err := irtext.NewWriter(p.Target).WriteModule(res.Module)
		if err == nil {
			err = checkModule(c.mod, p.Target, out, mc.e.seed)
		}
		if err != nil {
			mc.failed++
			mc.wrong = append(mc.wrong, fmt.Sprintf("%s (%s): %v", p, c.name, err))
		}
	}
}

func (mc *matrixCold) check(r *result) {
	r.failed += mc.failed
	r.wrong = append(r.wrong, mc.wrong...)
	r.note("oracle_pairs_checked", mc.pairsChecked)
}

func (mc *matrixCold) ledger(tr *tracer, r *result) error {
	return ledger(mc.last, nil, mc.samples, mc.lastRec, tr, mc.e, r)
}
