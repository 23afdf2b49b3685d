package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/tenant"
	"repro/internal/translator"
)

// ledgerBudget bounds the per-layer probe of a traced run; every input
// is probed at least once and at most ledgerRounds times.
const (
	ledgerBudget = 3 * time.Second
	ledgerRounds = 30
)

// ledgerOps is the first operation id of the ledger's probes; the
// workload's own traced operations use lower ids.
const ledgerOps = int64(1) << 40

// ledger times each layer's public functions on the workload's own
// inputs. Every probe of one input is one operation: a "ledger.op" span
// whose children are the layer calls, in the order the service's text
// pipeline makes them, plus the serving path around it (HTTP, gateway,
// jobs, governor). Metrics that are differences, such as
// service.queue_us, are differences of medians of those spans' self
// times on the same inputs.
//
// st is the workload's own serving stack; nil builds one around svc
// for the probe. Metrics the workload already measured (the journal
// ratios and pacer lateness of serve-mixed) are kept.
func ledger(svc *service.Service, st *stack, ins []input, rec *synthRecorder, tr *tracer, e *env, r *result) error {
	var ok []input
	for _, in := range ins {
		if in.expect == "ok" {
			ok = append(ok, in)
		}
	}
	if len(ok) == 0 {
		return fmt.Errorf("no translatable inputs")
	}
	if st == nil {
		registry, err := tenantRegistry()
		if err != nil {
			return err
		}
		dir, err := freshDir(e, "ledger", "journal")
		if err != nil {
			return err
		}
		if st, err = newStack(svc, registry, dir); err != nil {
			return err
		}
		defer st.close()
	}
	ctx := context.Background()
	tenantCtx := tenant.WithIdentity(ctx, "bench-a")
	var completeMS, streamMBs []float64
	apps0, syncs0 := st.journalCounts()
	journalOps := 0

	deadline := time.Now().Add(ledgerBudget)
	opID := ledgerOps
	for round := 0; round == 0 || (round < ledgerRounds && time.Now().Before(deadline)); round++ {
		for i, in := range ok {
			opID++
			root := tr.begin("ledger.op", opID, -1)
			call := func(name string, f func() error) error {
				sp := tr.begin(name, opID, root)
				err := f()
				tr.end(sp)
				if err != nil {
					return fmt.Errorf("%s on %s: %w", name, in.name, err)
				}
				return nil
			}
			var m, out *ir.Module
			var trn *translator.Translator
			var want string
			steps := []struct {
				name string
				f    func() error
			}{
				{"irtext.detect", func() error { _, _, err := svc.Detect(in.text); return err }},
				{"irtext.parse", func() (err error) { m, err = irtext.Parse(in.text, in.src); return err }},
				{"synth.fingerprint", func() error { svc.Cache().Key(in.pair()); return nil }},
				{"cache.get", func() (err error) { trn, _, err = svc.Cache().Get(ctx, in.pair(), missing); return err }},
				{"translator.translate", func() (err error) { out, err = trn.Translate(m); return err }},
				{"service.translate_result", func() error { _, err := svc.TranslateResult(ctx, in.src, in.tgt, m); return err }},
				{"irtext.write", func() (err error) { want, err = irtext.NewWriter(in.tgt).WriteModule(out); return err }},
				{"irtext.parse_stream", func() error {
					start := time.Now()
					_, err := irtext.ParseStream(strings.NewReader(in.text), in.src)
					streamMBs = append(streamMBs, float64(len(in.text))/1e6/time.Since(start).Seconds())
					return err
				}},
				{"service.translate_text", func() error {
					res, err := svc.TranslateTextResult(ctx, in.text, in.src, in.tgt)
					if err == nil && res.Rendered != want {
						err = fmt.Errorf("in-process output differs from the layer-by-layer output")
					}
					return err
				}},
				{"http.translate", func() error { return httpTranslate(st, in, tenantKeys[i%len(tenantKeys)], want) }},
				{"tenant.gateway", func() error { return serveLocal(st.handler, in, tenantKeys[i%len(tenantKeys)]) }},
				{"service.handler", func() error { return serveLocal(st.inner, in, "") }},
				{"governor.acquire", func() error {
					lease := svc.MemGovernor().Lease()
					defer lease.Release()
					return lease.Acquire(ctx, int64(len(in.text)))
				}},
			}
			if opID%2 == 1 {
				// Alternate which of the fingerprint and the lookup that
				// computes it again runs first, so neither always pays
				// for cold caches.
				steps[2], steps[3] = steps[3], steps[2]
			}
			for _, s := range steps {
				if err := call(s.name, s.f); err != nil {
					return err
				}
			}
			journalOps += 3 // the HTTP, gateway and handler translates each journal a sync marker
			start := time.Now()
			var id string
			if err := call("jobs.submit", func() error {
				ids, err := st.jobs.Submit(tenantCtx, []service.BatchItem{{Source: in.src.String(), Target: in.tgt.String(), IR: in.text}})
				if err == nil {
					id = ids[0]
				}
				return err
			}); err != nil {
				return err
			}
			if err := call("jobs.wait", func() error { return waitJob(st.jobs, id, want) }); err != nil {
				return err
			}
			completeMS = append(completeMS, float64(time.Since(start))/1e6)
			journalOps++
			tr.end(root)
		}
	}

	self := tr.selfTimes(ledgerOps, math.MaxInt64)
	med := func(name string) float64 { return median(self[name]) }
	byOp := tr.selfByOp(ledgerOps, math.MaxInt64)
	r.set("synth.fingerprint_us", med("synth.fingerprint"))
	r.set("cache.lookup_us", pairedMedian(byOp, "cache.get", "synth.fingerprint"))
	r.set("service.queue_us", pairedMedian(byOp, "service.translate_result", "cache.get", "translator.translate"))
	r.set("irtext.parse_us", med("irtext.parse"))
	r.set("irtext.write_us", med("irtext.write"))
	r.set("irtext.detect_us", med("irtext.detect"))
	r.set("irtext.stream_parse_mb_s", median(streamMBs))
	r.set("translator.translate_us", med("translator.translate"))
	r.set("http.overhead_us", pairedMedian(byOp, "http.translate", "service.translate_text"))
	r.set("tenant.gateway_us", pairedMedian(byOp, "tenant.gateway", "service.handler"))
	r.set("jobs.submit_ms", med("jobs.submit")/1e3)
	r.set("jobs.complete_ms", median(completeMS))
	r.set("governor.wait_ms", med("governor.acquire")/1e3)
	stats := svc.Stats()
	r.set("governor.parked", float64(stats.Stream.Parks))
	r.set("service.queue_high_water", float64(stats.QueueHighWater))
	if _, done := r.metrics["journal.appends_per_op"]; !done {
		apps1, syncs1 := st.journalCounts()
		r.set("journal.appends_per_op", float64(apps1-apps0)/float64(journalOps))
		r.set("journal.fsyncs_per_op", float64(syncs1-syncs0)/float64(journalOps))
	}
	if _, done := r.metrics["loadgen.late_p99_ms"]; !done {
		r.set("loadgen.late_p99_ms", 0)
	}

	// Allocations per call, on the first input.
	in := ok[0]
	m, err := irtext.Parse(in.text, in.src)
	if err != nil {
		return err
	}
	trn, _, err := svc.Cache().Get(ctx, in.pair(), missing)
	if err != nil {
		return err
	}
	out, err := trn.Translate(m)
	if err != nil {
		return err
	}
	r.set("synth.fingerprint_allocs", allocsPer(func() { svc.Cache().Key(in.pair()) }))
	r.set("irtext.parse_allocs", allocsPer(func() { _, _ = irtext.Parse(in.text, in.src) }))
	r.set("irtext.write_allocs", allocsPer(func() { _, _ = irtext.NewWriter(in.tgt).WriteModule(out) }))
	r.set("translator.translate_allocs", allocsPer(func() { _, _ = trn.Translate(m) }))
	if rec != nil {
		rec.report(r)
	}
	r.note("ledger_inputs", len(ok))
	return nil
}

// missing is the synthesize callback of a cache lookup that must hit.
func missing() (*synth.Result, error) {
	return nil, fmt.Errorf("unexpected cache miss")
}

// allocsPer is the mean heap allocations of one call of f.
func allocsPer(f func()) float64 {
	const runs = 5
	f() // warm any lazy state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

func translateBody(in input) []byte {
	b, _ := json.Marshal(service.TranslateRequest{Source: in.src.String(), Target: in.tgt.String(), IR: in.text})
	return b
}

// httpTranslate posts a JSON translate over the loopback listener and
// checks the served IR equals want.
func httpTranslate(st *stack, in input, key, want string) error {
	req, err := http.NewRequest(http.MethodPost, st.base+"/v1/translate", bytes.NewReader(translateBody(in)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Api-Key", key)
	resp, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	var tr service.TranslateResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		return err
	}
	if tr.IR != want {
		return fmt.Errorf("served IR differs from the in-process translation")
	}
	return nil
}

// serveLocal runs one JSON translate through h in process, with key as
// the API key when non-empty.
func serveLocal(h http.Handler, in input, key string) error {
	req := httptest.NewRequest(http.MethodPost, "/v1/translate", bytes.NewReader(translateBody(in)))
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-Api-Key", key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", rec.Code, rec.Body.String())
	}
	return nil
}

// waitJob waits for a batch job to finish and checks its output.
func waitJob(jobs *service.Jobs, id, want string) error {
	for {
		view, ok := jobs.Wait(context.Background(), id, 10*time.Second)
		if !ok {
			return fmt.Errorf("job %s vanished", id)
		}
		switch service.JobState(view.State) {
		case service.JobDone:
			if view.IR != want {
				return fmt.Errorf("job %s output differs from the in-process translation", id)
			}
			return nil
		case service.JobFailed:
			return fmt.Errorf("job %s failed: %s", id, view.Error)
		}
	}
}
