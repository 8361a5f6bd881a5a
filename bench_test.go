// Package ormprof's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation, plus the ablations DESIGN.md calls out.
// Each benchmark runs the corresponding experiment end to end and reports
// the paper's headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. Workload size is controlled with
// -workload-scale (default 1; the paper's SPEC train runs correspond to a
// much larger scale — shapes, not absolute values, are the reproduction
// target).
package ormprof

import (
	"bytes"
	"flag"
	"fmt"
	"testing"

	"ormprof/internal/depend"
	"ormprof/internal/experiments"
	"ormprof/internal/leap"
	"ormprof/internal/trace"
	"ormprof/internal/tracefmt"
	"ormprof/internal/whomp"
	"ormprof/internal/workloads"
)

var benchScale = flag.Int("workload-scale", 1, "workload scale factor for benchmarks")

func benchCfg() workloads.Config {
	return workloads.Config{Scale: *benchScale, Seed: 42}
}

// BenchmarkFig5CompressionOMSGvsRASG regenerates Figure 5: the per-benchmark
// compression of the object-relative multi-dimensional Sequitur grammar
// over the conventional raw-address grammar. Paper: 22 % average gain.
func BenchmarkFig5CompressionOMSGvsRASG(b *testing.B) {
	var rows []experiments.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig5(benchCfg())
	}
	for _, r := range rows {
		b.ReportMetric(r.GainPct, "gain%/"+shortName(r.Benchmark))
	}
	b.ReportMetric(experiments.AverageGain(rows), "gain%/average")
}

// BenchmarkFig6LEAPDependenceError regenerates Figure 6: the LEAP
// dependence-frequency error distribution. Paper: ~75 % of dependent pairs
// correct or within 10 %.
func BenchmarkFig6LEAPDependenceError(b *testing.B) {
	var rows []experiments.DepRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Dependence(experiments.DepConfig{Workloads: benchCfg()})
	}
	f := experiments.Summarize(rows)
	b.ReportMetric(100*f.LEAPWithin10, "within10%")
	b.ReportMetric(100*f.LEAP.Exact(), "exact%")
	b.ReportMetric(float64(f.LEAP.Pairs), "pairs")
}

// BenchmarkFig7ConnorsDependenceError regenerates Figure 7: the Connors
// windowed profiler's error distribution (never overestimates, misses
// long-range dependences).
func BenchmarkFig7ConnorsDependenceError(b *testing.B) {
	var rows []experiments.DepRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Dependence(experiments.DepConfig{Workloads: benchCfg()})
	}
	f := experiments.Summarize(rows)
	b.ReportMetric(100*f.ConnWithin10, "within10%")
	b.ReportMetric(100*f.Connors.Exact(), "exact%")
	overestimated := 0.0
	for i := 11; i < depend.NumBins; i++ {
		overestimated += f.Connors.Bins[i]
	}
	b.ReportMetric(100*overestimated, "overestimated%")
}

// BenchmarkFig8DependenceComparison regenerates Figure 8: LEAP vs Connors
// average error distributions. Paper: LEAP detects 56 % more pairs correct
// or within 10 %.
func BenchmarkFig8DependenceComparison(b *testing.B) {
	var rows []experiments.DepRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Dependence(experiments.DepConfig{Workloads: benchCfg()})
	}
	f := experiments.Summarize(rows)
	b.ReportMetric(100*f.LEAPWithin10, "leap-within10%")
	b.ReportMetric(100*f.ConnWithin10, "connors-within10%")
	b.ReportMetric(f.ImprovementPct, "improvement%")
}

// BenchmarkFig9StrideScore regenerates Figure 9: the fraction of
// strongly strided instructions LEAP identifies, per benchmark.
// Paper: 88 % average.
func BenchmarkFig9StrideScore(b *testing.B) {
	var rows []experiments.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig9(benchCfg(), 0)
	}
	for _, r := range rows {
		b.ReportMetric(r.Score, "score%/"+shortName(r.Benchmark))
	}
	b.ReportMetric(experiments.AverageScore(rows), "score%/average")
}

// BenchmarkTable1LEAPMetrics regenerates Table 1: LEAP profile compression
// ratio, time dilation, and sample quality. Paper averages: 3539x, 11.5x,
// 46.5 % accesses, 40.5 % instructions.
func BenchmarkTable1LEAPMetrics(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(benchCfg(), 0)
	}
	avg := experiments.Table1Average(rows)
	b.ReportMetric(avg.Compression, "compression-x")
	b.ReportMetric(avg.Dilation, "dilation-x")
	b.ReportMetric(avg.AccPct, "accesses-captured%")
	b.ReportMetric(avg.InstrPct, "instrs-captured%")
}

// BenchmarkTable1PerBenchmark reports the per-row Table 1 numbers.
func BenchmarkTable1PerBenchmark(b *testing.B) {
	for _, name := range workloads.Names() {
		name := name
		b.Run(shortName(name), func(b *testing.B) {
			var rows []experiments.Table1Row
			for i := 0; i < b.N; i++ {
				rows = experiments.Table1(benchCfg(), 0)
			}
			for _, r := range rows {
				if r.Benchmark == name {
					b.ReportMetric(r.Compression, "compression-x")
					b.ReportMetric(r.AccPct, "accesses-captured%")
					b.ReportMetric(r.InstrPct, "instrs-captured%")
				}
			}
		})
		break // the full sweep runs once; per-row numbers come from cmd/leap
	}
}

// BenchmarkAblationAllocatorInvariance regenerates the §1 motivation
// ablation: the object-relative profile must be identical under every
// allocator policy while the raw profile varies.
func BenchmarkAblationAllocatorInvariance(b *testing.B) {
	var rows []experiments.InvarianceRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AllocatorInvariance("197.parser", benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	identical, rawIdentical := 0, 0
	for _, r := range rows[1:] {
		if r.ObjectRelativeIdentical {
			identical++
		}
		if r.RawIdentical {
			rawIdentical++
		}
	}
	b.ReportMetric(float64(identical), "object-relative-identical")
	b.ReportMetric(float64(rawIdentical), "raw-identical")
}

// BenchmarkAblationLMADCap regenerates the §4.1 trade-off: LMAD budget vs
// profile size, capture, and dependence accuracy (the paper fixes 30).
func BenchmarkAblationLMADCap(b *testing.B) {
	caps := []int{5, 10, 30, 100}
	for _, c := range caps {
		c := c
		b.Run(fmt.Sprintf("cap%d", c), func(b *testing.B) {
			var rows []experiments.CapRow
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.LMADCapSweep("256.bzip2", benchCfg(), []int{c})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows[0].ProfileBytes), "profile-bytes")
			b.ReportMetric(rows[0].AccPct, "accesses-captured%")
			b.ReportMetric(rows[0].DepWithin10, "dep-within10%")
		})
	}
}

// BenchmarkAblationDecomposition splits WHOMP's Figure 5 win into
// translation-only and full-decomposition contributions.
func BenchmarkAblationDecomposition(b *testing.B) {
	var rows []experiments.DecompositionRow
	for i := 0; i < b.N; i++ {
		rows = experiments.DecompositionAblation(benchCfg())
	}
	var trans, full float64
	for _, r := range rows {
		trans += r.TranslationOnly
		full += r.FullDecomposition
	}
	n := float64(len(rows))
	b.ReportMetric(trans/n, "translation-only-gain%")
	b.ReportMetric(full/n, "full-decomposition-gain%")
}

// BenchmarkParallelPipeline measures the parallel profiling pipeline
// against the sequential path on a large synthetic workload: WHOMP with
// concurrent dimension-grammar workers and LEAP with instruction-sharded
// stream compression, at several worker counts. The trace is recorded once
// outside the timed region, so the benchmark isolates the profile-
// construction stage — the part the fan-out parallelizes (translation
// stays sequential but overlaps the workers). Throughput is reported as
// records/s; compare seq vs parN with benchstat. Speedup requires
// GOMAXPROCS > 1: on a single-CPU host the parallel path only adds channel
// overhead, which this benchmark then quantifies instead.
func BenchmarkParallelPipeline(b *testing.B) {
	// 181.mcf is the largest pointer-chasing workload; scale it up
	// relative to the global -workload-scale so the grammar and LMAD
	// stages dominate the per-iteration cost.
	cfg := workloads.Config{Scale: *benchScale * 4, Seed: 42}
	prog, err := workloads.New("181.mcf", cfg)
	if err != nil {
		b.Fatal(err)
	}
	buf, sites := experiments.Record(prog, nil)
	records := float64(len(buf.Accesses()))

	reportThroughput := func(b *testing.B) {
		b.ReportMetric(records*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	}

	b.Run("whomp/seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := whomp.New(sites)
			buf.Replay(p)
			if got := p.Profile("bench").Records; got != uint64(records) {
				b.Fatalf("profiled %d records, want %d", got, uint64(records))
			}
		}
		reportThroughput(b)
	})
	b.Run("whomp/par4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := whomp.NewParallel(sites, 4)
			buf.Replay(p)
			if got := p.Profile("bench").Records; got != uint64(records) {
				b.Fatalf("profiled %d records, want %d", got, uint64(records))
			}
		}
		reportThroughput(b)
	})

	b.Run("leap/seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := leap.New(sites, 0)
			buf.Replay(p)
			if got := p.Profile("bench").Records; got != uint64(records) {
				b.Fatalf("profiled %d records, want %d", got, uint64(records))
			}
		}
		reportThroughput(b)
	})
	for _, workers := range []int{2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("leap/par%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := leap.NewParallel(sites, 0, workers)
				buf.Replay(p)
				if got := p.Profile("bench").Records; got != uint64(records) {
					b.Fatalf("profiled %d records, want %d", got, uint64(records))
				}
			}
			reportThroughput(b)
		})
	}
}

// BenchmarkTraceEncodeDecode measures the tracefmt codec on a recorded
// workload trace: encode and decode throughput in MB/s (b.SetBytes) plus
// the on-disk density in bytes/event. The format trades a little CPU for
// traces small enough to keep ("collect once, profile many").
func BenchmarkTraceEncodeDecode(b *testing.B) {
	prog, err := workloads.New("181.mcf", benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	buf, sites := experiments.Record(prog, nil)

	var enc bytes.Buffer
	tw := tracefmt.NewWriter(&enc, tracefmt.WithName("bench"))
	tw.SetSites(sites)
	buf.Replay(tw)
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	encoded := enc.Bytes()

	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(encoded)))
		b.ReportAllocs()
		b.ReportMetric(float64(len(encoded))/float64(buf.Len()), "bytes/event")
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			out.Grow(len(encoded))
			w := tracefmt.NewWriter(&out, tracefmt.WithName("bench"))
			w.SetSites(sites)
			buf.Replay(w)
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			if out.Len() != len(encoded) {
				b.Fatalf("encoded %d bytes, want %d", out.Len(), len(encoded))
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(encoded)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := tracefmt.NewReader(bytes.NewReader(encoded))
			if err != nil {
				b.Fatal(err)
			}
			n, err := trace.Drain(r, trace.Discard)
			if err != nil {
				b.Fatal(err)
			}
			if n != buf.Len() {
				b.Fatalf("decoded %d events, want %d", n, buf.Len())
			}
		}
	})
}

// BenchmarkReplayVsInProcess compares the three ways of feeding a profiler:
// the in-process buffered stream, a materialized slice through the Source
// adapter, and a streaming replay from the encoded trace. allocs/op is the
// headline: the streaming path must stay O(frames), not O(events), proving
// replay memory is bounded by the batch size.
func BenchmarkReplayVsInProcess(b *testing.B) {
	prog, err := workloads.New("181.mcf", benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	buf, sites := experiments.Record(prog, nil)
	var enc bytes.Buffer
	tw := tracefmt.NewWriter(&enc, tracefmt.WithName("bench"))
	tw.SetSites(sites)
	buf.Replay(tw)
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	encoded := enc.Bytes()
	events := buf.Len()

	b.Run("inprocess", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lp := leap.New(sites, 0)
			buf.Replay(lp)
			if got := lp.Profile("bench").Records; got == 0 {
				b.Fatal("empty profile")
			}
		}
	})
	b.Run("slice-source", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lp := leap.New(sites, 0)
			if _, err := trace.Drain(buf.Source(), lp); err != nil {
				b.Fatal(err)
			}
			if got := lp.Profile("bench").Records; got == 0 {
				b.Fatal("empty profile")
			}
		}
	})
	b.Run("stream-replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lp := leap.New(sites, 0)
			r, err := tracefmt.NewReader(bytes.NewReader(encoded))
			if err != nil {
				b.Fatal(err)
			}
			n, err := trace.Drain(r, lp)
			if err != nil {
				b.Fatal(err)
			}
			if n != events {
				b.Fatalf("replayed %d events, want %d", n, events)
			}
			if got := lp.Profile("bench").Records; got == 0 {
				b.Fatal("empty profile")
			}
		}
	})
}

func shortName(bench string) string {
	// "164.gzip" -> "gzip"
	for i := 0; i < len(bench); i++ {
		if bench[i] == '.' {
			return bench[i+1:]
		}
	}
	return bench
}
