package main

import (
	"context"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

// hot-warm: a closed loop of two in-process clients calling
// Service.TranslateTextResult on the ten hot entries, source version
// given, on a warm cache and the default service configuration (FIFO
// queue, anonymous).
type hotWarm struct {
	e     *env
	svc   *service.Service
	synth *synthRecorder
	ins   []input
	outs  outputSet
	phase int
}

const hotClients = 2

func setupHot(e *env) (instance, error) {
	ins, err := inputs(e.manifest, scenario.ClassHot)
	if err != nil {
		return nil, err
	}
	rec := newSynthRecorder(e.tr)
	// The default configuration, so the translator cache is in memory
	// only, as sirod runs without -cache.
	svc := service.New(service.Config{SynthFn: rec.fn()})
	if err := warm(svc, ins); err != nil {
		svc.Close()
		return nil, err
	}
	return &hotWarm{e: e, svc: svc, synth: rec, ins: ins, outs: outputSet{}}, nil
}

func (h *hotWarm) close() { h.svc.Close() }

func (h *hotWarm) timed(d time.Duration, tr *tracer, r *result) error {
	h.phase++
	ctx := context.Background()
	seqs := make([][]int, hotClients)
	outs := make([]outputSet, hotClients)
	for c := range seqs {
		seqs[c] = sequence(h.e.seed*100+int64(h.phase)*10+int64(c), len(h.ins), 4096)
		outs[c] = outputSet{}
	}
	s := startSampler(time.Second)
	wall, cpu, ops, late, errs := closedLoop(d, hotClients, s, func(c, k int) (int64, error) {
		in := h.ins[seqs[c][k%len(seqs[c])]]
		// A traced phase runs the same call inside one span; the
		// per-layer split comes from the ledger.
		sp := tr.begin("service.translate_text", int64(c)<<32|int64(k), -1)
		res, err := h.svc.TranslateTextResult(ctx, in.text, in.src, in.tgt)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		outs[c].addString(in.name, res.Rendered)
		return int64(len(in.text)), nil
	})
	for _, o := range outs {
		h.outs.merge(o)
	}
	r.attempted += len(ops) + len(errs)
	r.failed += len(errs)
	if len(errs) > 0 {
		r.note("first_error", errs[0].Error())
	}
	s.phaseMetrics(ops, wall, cpu, r)
	// The hot inputs are replayed in balanced rounds, so their bytes
	// per second are a fixed multiple of ops_per_s.
	delete(r.metrics, "mb_per_s")
	delete(r.spreads, "mb_per_s")
	r.set("loadgen.late_p99_ms", late)
	return nil
}

func (h *hotWarm) check(r *result) { checkOutputs(h.ins, h.outs, h.e.seed, r) }

func (h *hotWarm) ledger(tr *tracer, r *result) error {
	return ledger(h.svc, nil, h.ins, h.synth, tr, h.e, r)
}
