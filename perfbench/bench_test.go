package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"shieldstore/internal/workload"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tiny runs a workload at 1/100 of its key count for a fraction of a
// second.
func tiny(t *testing.T, name string, trace bool) options {
	return options{workload: name, seed: 7, seconds: 0.3, trace: trace, out: t.TempDir(), scale: 100}
}

func TestSmokeEmitsEveryMetric(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(b.Workloads), len(specs))
	}
	for _, wl := range b.Workloads {
		for _, trace := range []bool{false, true} {
			defs := b.EndToEnd
			if trace {
				defs = b.PerLayer
			}
			res, err := run(tiny(t, wl.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.report.Correct || res.report.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d: %s", wl.Name, trace, res.report.Correct, res.report.Attempted, res.info.CheckError)
			}
			if len(res.report.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.Name, trace, len(res.report.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.report.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", wl.Name, trace, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}

func TestCorruptExpectedValueFails(t *testing.T) {
	for _, name := range []string{"core-rd50u", "cluster-repl-rd50z"} {
		o := tiny(t, name, false)
		o.corrupt = func(in *inputs) {
			// Corrupt the expected value of an early read key; in a
			// batched workload, one that no Get op reads first, so only
			// checking every key a Get returns catches it.
			firsts := map[uint64]bool{}
			for i := 0; i < len(in.ops); i += in.batch {
				if in.ops[i].Kind == workload.Read {
					firsts[in.ops[i].Key] = true
				}
			}
			id, found := uint64(0), false
			for i := 0; i < len(in.ops) && !found; i += in.batch {
				if in.ops[i].Kind != workload.Read {
					continue
				}
				for _, op := range in.ops[i : i+in.batch] {
					if in.batch == 1 || !firsts[op.Key] {
						id, found = op.Key, true
						break
					}
				}
			}
			if !found {
				t.Fatalf("%s: no read key to corrupt", name)
			}
			in.want = slices.Clone(in.vals)
			in.want[id] = slices.Clone(in.vals[id])
			in.want[id][0] ^= 1
		}
		res, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.report.Correct || res.report.Failed == 0 || res.info.WrongValue == 0 {
			t.Fatalf("%s: corrupted expected value not caught: correct=%v failed=%d wrong=%d",
				name, res.report.Correct, res.report.Failed, res.info.WrongValue)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(len(xs) - i)
	}
	if v, ok := pct(xs, 0.50); !ok || v != 500 {
		t.Errorf("p50 of 1..1000 = %v, %v; want 500, true", v, ok)
	}
	if v, ok := pct(xs, 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := pct(xs[:999], 0.99); ok {
		t.Error("p99 of 999 samples reported with fewer than ten beyond it")
	}
}
