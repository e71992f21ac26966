// Serving-layer throughput baselines: the BenchmarkService* group
// measures the Service/Session layer itself (session churn, concurrent
// classification and streaming throughput), and gateway_bench_test.go
// prices the gateway on top of it.
//
//	go test -bench=Service -benchmem
//
// The paper's experiments are not benchmarked here: the tests of
// internal/experiments check their results, and perfbench's paper_suite
// workload times each one (docs/perf.md).
package adasense_test

import (
	"sync"
	"testing"

	"adasense"
	"adasense/internal/experiments"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
	benchLabErr  error
)

func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLab, benchLabErr = experiments.NewQuickLab(20260612)
	})
	if benchLabErr != nil {
		b.Fatal(benchLabErr)
	}
	return benchLab
}

// benchService wraps the benchmark lab's shared classifier in a Service;
// the fixed-at-top controller keeps streamed batches valid forever, so
// throughput benchmarks can reuse one pre-sampled batch.
func benchService(b *testing.B) *adasense.Service {
	b.Helper()
	sys := &adasense.System{Network: lab(b).Net}
	svc, err := adasense.NewService(sys, adasense.WithControllerFactory(func() adasense.Controller {
		return adasense.NewBaselineController()
	}))
	if err != nil {
		b.Fatal(err)
	}
	return svc
}

// benchBatch samples one batch of benchSec seconds at the top
// configuration.
func benchBatch(b *testing.B, benchSec float64) *adasense.Batch {
	b.Helper()
	m := adasense.NewMotion(adasense.RandomSchedule(61, 30, 10, 20), 62)
	return adasense.NewSampler(adasense.DefaultNoiseModel(), 63).
		Sample(m, adasense.ParetoStates()[0], 0, benchSec)
}

// BenchmarkServiceOpenSession measures session churn: open, one 1 s
// push, close — the cost a connecting device pays.
func BenchmarkServiceOpenSession(b *testing.B) {
	svc := benchService(b)
	batch := benchBatch(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := svc.OpenSession("bench")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Push(batch); err != nil {
			b.Fatal(err)
		}
		sess.Close()
	}
}

// BenchmarkServiceConcurrentClassify measures stateless classification
// throughput with every core hammering the shared classifier through the
// pipeline pool.
func BenchmarkServiceConcurrentClassify(b *testing.B) {
	svc := benchService(b)
	batch := benchBatch(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := svc.Classify(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServiceConcurrentSessions measures streaming throughput with
// one long-lived session per worker goroutine pushing one-hop batches —
// the serving layer's steady state.
func BenchmarkServiceConcurrentSessions(b *testing.B) {
	svc := benchService(b)
	batch := benchBatch(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess, err := svc.OpenSession("bench")
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		for pb.Next() {
			if _, err := sess.Push(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}
