package query

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"eventdb/internal/columnar"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// E20 benchmarks: the same filtered scan and windowed aggregate
// through the row path and the vectorized columnar path, over the
// same sealed history: the in-process guard for the kernels whose
// end-to-end effect bench/ (E23) reports on its dbmix workload.

const benchRows = 100_000

var (
	benchOnce sync.Once
	benchDB   *storage.DB
)

func e20DB(b *testing.B) *storage.DB {
	b.Helper()
	benchOnce.Do(func() {
		db, err := storage.Open(storage.Options{})
		if err != nil {
			panic(err)
		}
		schema, err := storage.NewSchema("bench_events", []storage.Column{
			{Name: "id", Kind: val.KindInt, NotNull: true},
			{Name: "ts", Kind: val.KindTime},
			{Name: "sym", Kind: val.KindString},
			{Name: "price", Kind: val.KindFloat},
			{Name: "qty", Kind: val.KindInt},
		}, "id")
		if err != nil {
			panic(err)
		}
		if err := db.CreateTable(schema); err != nil {
			panic(err)
		}
		m, err := columnar.Attach(db, columnar.Config{SealRows: 8192, SealInterval: time.Hour})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(42))
		for start := 0; start < benchRows; start += 1000 {
			txn := db.Begin()
			for i := start; i < start+1000; i++ {
				if err := txn.Insert("bench_events", map[string]val.Value{
					"id":    val.Int(int64(i)),
					"ts":    val.Time(time.Unix(1700000000+int64(i), 0).UTC()),
					"sym":   val.String(colSyms[rng.Intn(len(colSyms))]),
					"price": val.Float(float64(rng.Intn(40000)) / 4),
					"qty":   val.Int(int64(rng.Intn(1000))),
				}); err != nil {
					panic(err)
				}
			}
			if _, err := txn.Commit(); err != nil {
				panic(err)
			}
		}
		if _, err := m.Compact(""); err != nil {
			panic(err)
		}
		benchDB = db
	})
	return benchDB
}

func benchScan(b *testing.B, columnarPath bool) {
	db := e20DB(b)
	mk := func() *Query {
		q := New("bench_events").Where("sym = 'ACME' AND price > 7500").Select("id", "price")
		if !columnarPath {
			q = q.NoColumnar()
		}
		return q
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mk().Run(db)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkE20RowScan(b *testing.B)      { benchScan(b, false) }
func BenchmarkE20ColumnarScan(b *testing.B) { benchScan(b, true) }

func benchWindowedAgg(b *testing.B, columnarPath bool) {
	db := e20DB(b)
	// A half-range window over the ordered id column with the full
	// aggregate set: the shape a Differ polls to watch a sliding metric.
	mk := func() *Query {
		q := New("bench_events").Where("id >= 25000 AND id < 75000").
			Agg("n", Count, "").Agg("s", Sum, "qty").Agg("lo", Min, "price").Agg("hi", Max, "price")
		if !columnarPath {
			q = q.NoColumnar()
		}
		return q
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mk().Run(db)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("agg rows = %d", len(res.Rows))
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkE20RowWindowedAggregate(b *testing.B)      { benchWindowedAgg(b, false) }
func BenchmarkE20ColumnarWindowedAggregate(b *testing.B) { benchWindowedAgg(b, true) }

// The dbmix read shapes (ROADMAP item 3): 100k sealed rows in 8,192-row
// segments plus an 8k-row unsealed tail whose seq values lie above
// every sealed one, a grouped aggregate over the first 4,096 sealed
// rows and a 2,000-row seq-range scan. Both queries address only
// sealed rows, so the tail must cost a zone-map test, not a row walk.

const (
	tradesSealed = 100_000
	tradesTail   = 8000
)

var (
	tradesOnce  sync.Once
	tradesBench *storage.DB
)

func e20TradesDB(b *testing.B) *storage.DB {
	b.Helper()
	tradesOnce.Do(func() {
		db, _, err := newTradesDB(tradesSealed, 8192, tradesTail)
		if err != nil {
			panic(err)
		}
		tradesBench = db
	})
	return tradesBench
}

func BenchmarkE20ColumnarGroupedAggregate(b *testing.B) {
	db := e20TradesDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := New("trades").Where("seq < 4096").GroupBy("sym").
			Agg("total", Sum, "qty").Agg("n", Count, "").Run(db)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 50 {
			b.Fatalf("groups = %d", len(res.Rows))
		}
	}
}

func BenchmarkE20TailScan(b *testing.B) {
	db := e20TradesDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * 7919) % (tradesSealed - 2000)
		res, err := New("trades").
			Where(fmt.Sprintf("seq >= %d AND seq < %d AND qty >= 900", lo, lo+2000)).Run(db)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}
