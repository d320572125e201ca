package shieldstore

// This file provides `go test -bench` entry points:
//
//   - micro-benchmarks over the public API (real wall time per operation,
//     plus the simulator's virtual Kop/s as a custom metric), and
//   - one Benchmark per paper table/figure, each regenerating the
//     experiment at a reduced scale (the full tables print via
//     `go run ./cmd/shieldstore-bench -run all`), and
//   - ablation benchmarks for the design choices DESIGN.md calls out
//     (MAC-bucket capacity, partition count, cache budget).
//
// All virtual-time metrics are deterministic; wall-time numbers depend on
// the host as usual.

import (
	"fmt"
	"testing"

	"shieldstore/internal/bench"
	"shieldstore/internal/core"
	"shieldstore/internal/mem"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
	"shieldstore/internal/workload"
)

// --- public-API micro-benchmarks ---

// benchKeyCount is the number of preloaded keys the micro-benchmarks
// rotate over.
const benchKeyCount = 4096

// benchDB opens a database preloaded with benchKeyCount values and
// returns their keys, formatted once here so the timed loops measure the
// store rather than workload.FormatKey's fmt.Sprintf.
func benchDB(b *testing.B, valSize int) (*DB, [][]byte) {
	b.Helper()
	db, err := Open(Config{Partitions: 1, Buckets: 4096, EPCBytes: 8 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([][]byte, benchKeyCount)
	for i := range keys {
		keys[i] = workload.FormatKey(uint64(i))
		if err := db.Set(keys[i], workload.MakeValue(valSize, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	return db, keys
}

// reportVirtualKops reports the simulator throughput over the measured
// window (excluding the preload, whose virtual time is in `before`).
func reportVirtualKops(b *testing.B, db *DB, before float64, ops int) {
	b.Helper()
	if d := db.Stats().VirtualSeconds - before; d > 0 {
		b.ReportMetric(float64(ops)/d/1e3, "virtual-Kop/s")
	}
}

func BenchmarkGet16B(b *testing.B)  { benchGet(b, 16) }
func BenchmarkGet512B(b *testing.B) { benchGet(b, 512) }

func benchGet(b *testing.B, valSize int) {
	db, keys := benchDB(b, valSize)
	defer db.Close()
	before := db.Stats().VirtualSeconds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(keys[i%benchKeyCount]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportVirtualKops(b, db, before, b.N)
}

func BenchmarkSet512B(b *testing.B) {
	db, keys := benchDB(b, 512)
	defer db.Close()
	val := workload.MakeValue(512, 7)
	before := db.Stats().VirtualSeconds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Set(keys[i%benchKeyCount], val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportVirtualKops(b, db, before, b.N)
}

func BenchmarkAppend(b *testing.B) {
	db, keys := benchDB(b, 16)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rotate keys so values stay small.
		if err := db.Append(keys[i%benchKeyCount], []byte("x")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncr(b *testing.B) {
	db, _ := benchDB(b, 16)
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Incr([]byte("bench-counter"), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- per-table / per-figure regeneration benchmarks ---

// benchCfg is small enough to keep `go test -bench=.` in CI territory
// while preserving the working-set/EPC ratios.
func benchCfg() bench.Config {
	return bench.Config{Scale: 1000, Ops: 3000, Seed: 42}
}

func benchExperiment(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := e.Run(cfg)
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { benchExperiment(b, "fig19") }

// BenchmarkBatchExp regenerates the batch-amortization table (the full
// sweep prints via `go run ./cmd/shieldstore-bench -run batch`).
func BenchmarkBatchExp(b *testing.B) { benchExperiment(b, "batch") }

// BenchmarkBatch sweeps DB.Batch size under uniform and zipfian set
// streams over the preloaded key space. batch=1 is the plain per-op
// loop; compare virtual-Kop/s across sub-benchmarks.
func BenchmarkBatch(b *testing.B) {
	for _, dist := range []struct {
		name string
		d    workload.Distribution
	}{{"uniform", workload.Uniform}, {"zipf99", workload.Zipf99}} {
		for _, size := range []int{1, 8, 32, 128} {
			b.Run(fmt.Sprintf("%s/batch%d", dist.name, size), func(b *testing.B) {
				db, _ := benchDB(b, 128)
				defer db.Close()
				gen := workload.NewGen(workload.Spec{Name: "SET100", ReadPct: 0, Dist: dist.d}, 4096, 42)
				val := workload.MakeValue(128, 9)
				before := db.Stats().VirtualSeconds
				b.ReportAllocs()
				b.ResetTimer()
				if size == 1 {
					for i := 0; i < b.N; i++ {
						if err := db.Set(workload.FormatKey(gen.Next().Key), val); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					ops := make([]BatchOp, size)
					for i := 0; i < b.N; i += size {
						n := min(size, b.N-i)
						for j := 0; j < n; j++ {
							ops[j] = BatchOp{Kind: BatchSet, Key: workload.FormatKey(gen.Next().Key), Value: val}
						}
						for _, r := range db.Batch(ops[:n]) {
							if r.Err != nil {
								b.Fatal(r.Err)
							}
						}
					}
				}
				b.StopTimer()
				reportVirtualKops(b, db, before, b.N)
			})
		}
	}
}

// --- ablation benchmarks ---

// ablationStore builds a single-partition engine on a fresh machine.
func ablationStore(b *testing.B, mod func(*core.Options)) (*core.Store, *sim.Meter) {
	b.Helper()
	space := mem.NewSpace(mem.Config{EPCBytes: 2 << 20})
	e := sgx.New(sgx.Config{Space: space, Seed: 5})
	opts := core.Defaults(2048)
	if mod != nil {
		mod(&opts)
	}
	s := core.New(e, nil, opts)
	loader := sim.NewMeter(e.Model())
	for i := 0; i < 8192; i++ {
		if err := s.Set(loader, workload.FormatKey(uint64(i)), workload.MakeValue(64, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	return s, sim.NewMeter(e.Model())
}

// BenchmarkAblationMACBucketCap sweeps the MAC-bucket node capacity (the
// paper fixes 30; chains of 4 here make small caps chain-heavy).
func BenchmarkAblationMACBucketCap(b *testing.B) {
	for _, cap := range []int{2, 10, 30, 120} {
		b.Run(fmt.Sprintf("cap%d", cap), func(b *testing.B) {
			s, m := ablationStore(b, func(o *core.Options) { o.MACBucketCap = cap })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Get(m, workload.FormatKey(uint64(i%8192))); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(m.Cycles())/float64(b.N), "virtual-cycles/op")
			}
		})
	}
}

// BenchmarkAblationCacheBudget sweeps the EPC plaintext cache size.
func BenchmarkAblationCacheBudget(b *testing.B) {
	for _, budget := range []int64{0, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("cache%dKB", budget>>10), func(b *testing.B) {
			s, m := ablationStore(b, func(o *core.Options) { o.CacheBytes = budget })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Zipf-ish: hammer a hot subset.
				if _, err := s.Get(m, workload.FormatKey(uint64(i%128))); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(m.Cycles())/float64(b.N), "virtual-cycles/op")
			}
		})
	}
}

// BenchmarkAblationPartitions sweeps the partition count at fixed total
// buckets, reporting the parallel virtual throughput.
func BenchmarkAblationPartitions(b *testing.B) {
	for _, parts := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parts%d", parts), func(b *testing.B) {
			space := mem.NewSpace(mem.Config{EPCBytes: 4 << 20})
			e := sgx.New(sgx.Config{Space: space, Seed: 5})
			p := core.NewPartitioned(e, parts, core.Defaults(4096))
			loader := sim.NewMeter(e.Model())
			for i := 0; i < 8192; i++ {
				key := workload.FormatKey(uint64(i))
				if err := p.Part(p.Route(loader, key)).Set(loader, key, workload.MakeValue(64, uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
			p.ResetMeters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := workload.FormatKey(uint64(i % 8192))
				part := p.Route(loader, key)
				if _, err := p.Part(part).Get(p.Meter(part), key); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if p.MaxCycles() > 0 {
				model := e.Model()
				b.ReportMetric(sim.KopsPerSec(sim.Throughput(model, uint64(b.N), p.MaxCycles())), "virtual-Kop/s")
			}
		})
	}
}

// BenchmarkAblationIntegrity compares the paper's flattened in-enclave
// MAC hashes (§4.3) against the full Merkle tree the paper rejects. The
// flattened design should win: tree verification walks log2(buckets)
// levels of keyed hashing per operation.
func BenchmarkAblationIntegrity(b *testing.B) {
	for _, mode := range []string{"flat", "merkle"} {
		b.Run(mode, func(b *testing.B) {
			s, m := ablationStore(b, func(o *core.Options) {
				o.Buckets = 1 << 14 // tall tree: 15 levels
				o.MACHashes = 1 << 14
				o.MerkleTree = mode == "merkle"
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Get(m, workload.FormatKey(uint64(i%8192))); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(m.Cycles())/float64(b.N), "virtual-cycles/op")
			}
		})
	}
}

// BenchmarkAblationKeyHint isolates the §5.4 two-step search cost on
// purpose-built long chains.
func BenchmarkAblationKeyHint(b *testing.B) {
	for _, hint := range []bool{false, true} {
		b.Run(fmt.Sprintf("hint=%v", hint), func(b *testing.B) {
			s, m := ablationStore(b, func(o *core.Options) {
				o.Buckets = 256 // chains of ~32
				o.MACHashes = 256
				o.KeyHint = hint
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Get(m, workload.FormatKey(uint64(i%8192))); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(m.Events(sim.CtrDecrypt))/float64(b.N), "decrypts/op")
			}
		})
	}
}
