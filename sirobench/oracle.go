package main

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/tvalid"
	"repro/internal/version"
)

// oracleTrials is the number of random-input co-executions per check.
const oracleTrials = 8

// checkModule is the output oracle: the translated text must read back
// at its target version, and co-executing it against the source module
// must show no behavioural or structural difference. It never trusts
// the translator's own verdict.
func checkModule(srcMod *ir.Module, tgt version.V, out string, seed int64) error {
	outMod, err := irtext.Parse(out, tgt)
	if err != nil {
		return fmt.Errorf("output does not read at %s: %w", tgt, err)
	}
	if rep := tvalid.Validate(srcMod, outMod, tvalid.Options{Trials: oracleTrials, Seed: seed}); !rep.OK() {
		return fmt.Errorf("differential execution disagrees: %s", rep)
	}
	return nil
}

// checkText is checkModule for a source given as text at version src.
func checkText(srcText string, src, tgt version.V, out string, seed int64) error {
	srcMod, err := irtext.Parse(srcText, src)
	if err != nil {
		return fmt.Errorf("source does not read at %s: %w", src, err)
	}
	return checkModule(srcMod, tgt, out, seed)
}

// distinct is one distinct output and how many operations produced it.
type distinct struct {
	out string
	n   int
}

// outputSet keeps every distinct output seen per input, so the oracle
// can check each distinct output once after the timed phase while the
// phase itself only compares bytes against the outputs already seen. It
// is owned by one goroutine; merge combines the per-client sets.
type outputSet map[string][]*distinct

func (o outputSet) addString(key, out string) { o.add(key, out, 1) }

func (o outputSet) add(key, out string, n int) {
	for _, d := range o[key] {
		if d.out == out {
			d.n += n
			return
		}
	}
	o[key] = append(o[key], &distinct{out: out, n: n})
}

// addBytes is addString for a reused buffer: it copies out only when
// the bytes are new.
func (o outputSet) addBytes(key string, out []byte) {
	for _, d := range o[key] {
		if d.out == string(out) {
			d.n++
			return
		}
	}
	o[key] = append(o[key], &distinct{out: string(out), n: 1})
}

func (o outputSet) merge(other outputSet) {
	for k, ds := range other {
		for _, d := range ds {
			o.add(k, d.out, d.n)
		}
	}
}

// checkOutputs runs the oracle over every distinct output of every
// input.
func checkOutputs(ins []input, outs outputSet, seed int64, r *result) {
	checked := 0
	for _, in := range ins {
		for _, d := range outs[in.name] {
			checked++
			if err := checkText(in.text, in.src, in.tgt, d.out, seed); err != nil {
				r.reject(d.n, "%s (%s): %v", in.name, in.pair(), err)
			}
		}
	}
	r.note("oracle_outputs_checked", checked)
}
