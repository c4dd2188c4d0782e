package analytics

import (
	"testing"

	"eventdb/examples/internal/workload"
)

// BenchmarkE8DetectThroughput is experiment E8's throughput row (the
// accuracy row is TestScoreHarness): one robust z-score detector over
// 100,000 seasonal meter readings.
func BenchmarkE8DetectThroughput(b *testing.B) {
	gen := workload.NewMeters(3, 50)
	readings := make([]workload.MeterReading, 100000)
	for i := range readings {
		readings[i] = gen.Next()
	}
	b.Run("zscore", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := &ZScore{Threshold: 3, MinObservations: 50, Robust: true}
			for _, r := range readings {
				d.Feed(r.Value)
			}
		}
		b.ReportMetric(float64(len(readings)), "obs/op")
	})
}
