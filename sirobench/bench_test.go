package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

// lastLine decodes the summary a run printed last.
func lastLine(t *testing.T, out []byte) summary {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, out)
	}
	return s
}

// TestShortModeEmitsEveryMetric runs every workload briefly, untraced
// and traced, and checks each reports every named metric with its unit
// and passes the oracle.
func TestShortModeEmitsEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(wl.name, 7, time.Second, traced, t.TempDir(), &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			s := lastLine(t, out.Bytes())
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 || !res.correct() {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d wrong=%v", wl.name, traced, s.Correct, s.Attempted, s.Failed, res.wrong)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			} else {
				printed := map[string]bool{"tail_ms": true, "fail_ratio": true}
				switch wl.name {
				case "serve-mixed":
					printed["mb_per_s"], printed["slo_miss_ratio"] = true, true
				case "giant-stream":
					printed["mb_per_s"] = true
				}
				for _, d := range unbounded {
					line := d.name + " "
					if got := strings.Contains(out.String(), line); got != printed[d.name] {
						t.Errorf("%s: %s printed = %v, want %v", wl.name, d.name, got, printed[d.name])
					}
				}
			}
			if len(s.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(s.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := s.Metrics[d.name]
				if !ok || m["unit"] != d.unit {
					t.Errorf("%s traced=%v: metric %s = %v, want unit %s", wl.name, traced, d.name, m, d.unit)
				}
				if _, ok := m["value"].(float64); !ok {
					t.Errorf("%s traced=%v: metric %s has no numeric value", wl.name, traced, d.name)
				}
			}
		}
	}
}

// TestOracleRejectsWrongTranslation shows the oracle accepts the real
// translation of an entry and rejects the same output with one constant
// changed.
func TestOracleRejectsWrongTranslation(t *testing.T) {
	m := scenario.MustLoad()
	ins, err := inputs(m, scenario.ClassHot)
	if err != nil {
		t.Fatal(err)
	}
	var in input
	for _, x := range ins {
		if x.name == "hot-12.0-3.6" {
			in = x
		}
	}
	svc := service.New(service.Config{})
	defer svc.Close()
	res, err := svc.TranslateTextResult(context.Background(), in.text, in.src, in.tgt)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkText(in.text, in.src, in.tgt, res.Rendered, 1); err != nil {
		t.Fatalf("oracle rejects the real translation: %v", err)
	}
	// fact(5) becomes fact(4): still valid IR at the target version,
	// but main returns a different value.
	wrong := strings.Replace(res.Rendered, "i32 5)", "i32 4)", 1)
	if wrong == res.Rendered {
		t.Fatalf("translation has no call with constant 5 to mutate:\n%s", res.Rendered)
	}
	if err := checkText(in.text, in.src, in.tgt, wrong, 1); err == nil {
		t.Fatal("oracle accepted a translation that computes a different result")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, which the
// benchmark's runner reads, in step with the metrics this program
// emits.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program emits %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program emits %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(cfg.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if cfg.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program has %s", i, cfg.Workloads[i].Name, wl.name)
		}
	}
}
