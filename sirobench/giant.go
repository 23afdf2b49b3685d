package main

import (
	"bytes"
	"context"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

// giant-stream: a closed loop of one in-process client calling
// Service.TranslateStream on the three giant entries on a warm cache.
type giantStream struct {
	e     *env
	svc   *service.Service
	synth *synthRecorder
	ins   []input
	outs  outputSet
	phase int
	buf   bytes.Buffer
}

func setupGiant(e *env) (instance, error) {
	ins, err := inputs(e.manifest, scenario.ClassGiant)
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
	return &giantStream{e: e, svc: svc, synth: rec, ins: ins, outs: outputSet{}}, nil
}

func (g *giantStream) close() { g.svc.Close() }

func (g *giantStream) timed(d time.Duration, tr *tracer, r *result) error {
	g.phase++
	ctx := context.Background()
	seq := sequence(g.e.seed*100+int64(g.phase), len(g.ins), 4096)
	parks := g.svc.Stats().Stream.Parks
	s := startSampler(time.Second)
	wall, cpu, ops, late, errs := closedLoop(d, 1, s, func(_, k int) (int64, error) {
		in := g.ins[seq[k%len(seq)]]
		g.buf.Reset()
		sp := tr.begin("service.translate_stream", int64(k), -1)
		res, err := g.svc.TranslateStream(ctx, strings.NewReader(in.text), &g.buf, in.src, in.tgt, false)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		g.outs.addBytes(in.name, g.buf.Bytes())
		return res.BytesIn, nil
	})
	r.attempted += len(ops) + len(errs)
	r.failed += len(errs)
	if len(errs) > 0 {
		r.note("first_error", errs[0].Error())
	}
	s.phaseMetrics(ops, wall, cpu, r)
	r.set("loadgen.late_p99_ms", late)
	r.note("governor_parks", g.svc.Stats().Stream.Parks-parks)
	return nil
}

// check holds every streamed output to the batch translation of the
// same input byte for byte, then runs the oracle on the batch output.
func (g *giantStream) check(r *result) {
	for _, in := range g.ins {
		batch, err := g.svc.TranslateTextResult(context.Background(), in.text, in.src, in.tgt)
		if err != nil {
			r.reject(1, "%s: batch translation failed: %v", in.name, err)
			continue
		}
		for _, d := range g.outs[in.name] {
			if d.out != batch.Rendered {
				r.reject(d.n, "%s: stream output (%d bytes) differs from batch output (%d bytes)", in.name, len(d.out), len(batch.Rendered))
			}
		}
		if err := checkText(in.text, in.src, in.tgt, batch.Rendered, g.e.seed); err != nil {
			n := 0
			for _, d := range g.outs[in.name] {
				n += d.n
			}
			r.reject(n, "%s (%s): %v", in.name, in.pair(), err)
		}
	}
}

func (g *giantStream) ledger(tr *tracer, r *result) error {
	return ledger(g.svc, nil, g.ins, g.synth, tr, g.e, r)
}
