// Experiment benchmarks E1–E19, in process: one benchmark per row or
// series of the experiments README.md lists. They are guards (ns/op,
// allocs/op, does it still run), not headlines; end-to-end numbers come
// from a real eventdbd under bench/ (E23, bench/README.md).
//
// The source paper is a tutorial with no quantitative evaluation, so
// these experiments check the paper's *claims*.
package eventdb

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/cep"
	"eventdb/internal/core"
	"eventdb/internal/cq"
	"eventdb/internal/event"
	"eventdb/internal/journal"
	"eventdb/internal/pubsub"
	"eventdb/internal/query"
	"eventdb/internal/queue"
	"eventdb/internal/repl"
	"eventdb/internal/rules"
	"eventdb/internal/server"
	"eventdb/internal/storage"
	"eventdb/internal/trigger"
	"eventdb/internal/val"
)

// tradeStream is a seeded trade feed over n symbols, each price a
// geometric random walk from 100, one event per 100ms of event time: the
// stream the benchmarks and the integration tests publish.
func tradeStream(seed int64, n int) func() *event.Event {
	rng := rand.New(rand.NewSource(seed))
	logPx := make([]float64, n)
	at := time.Date(2026, 6, 10, 9, 30, 0, 0, time.UTC)
	return func() *event.Event {
		i := rng.Intn(n)
		logPx[i] += rng.NormFloat64() * 0.002
		ev := event.New("trade", map[string]any{"sym": fmt.Sprintf("SYM%03d", i),
			"price": math.Round(1e4*math.Exp(logPx[i])) / 100, "qty": int64(1+rng.Intn(10)) * 100})
		at = at.Add(100 * time.Millisecond)
		ev.Time = at
		return ev
	}
}

func benchDB(b *testing.B, dir string) *storage.DB {
	b.Helper()
	db, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func tradeTable(b *testing.B, db *storage.DB) {
	b.Helper()
	s, err := storage.NewSchema("trades", []storage.Column{
		{Name: "sym", Kind: val.KindString, NotNull: true},
		{Name: "price", Kind: val.KindFloat, NotNull: true},
		{Name: "qty", Kind: val.KindInt, NotNull: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.CreateTable(s); err != nil {
		b.Fatal(err)
	}
}

func tradeRow(i int) map[string]val.Value {
	return map[string]val.Value{
		"sym":   val.String(fmt.Sprintf("S%d", i%64)),
		"price": val.Float(float64(i % 1000)),
		"qty":   val.Int(int64(i)),
	}
}

// --- E1: capture mechanism comparison -------------------------------

func BenchmarkE1CaptureTrigger(b *testing.B) {
	db := benchDB(b, "")
	tradeTable(b, db)
	captured := 0
	m := trigger.NewManager(db, func(*event.Event) { captured++ })
	defer m.Close()
	if _, err := m.Register(trigger.Def{Name: "cap", Table: "trades", Timing: trigger.After}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Insert("trades", tradeRow(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if captured != b.N {
		b.Fatalf("captured %d of %d", captured, b.N)
	}
}

func BenchmarkE1CaptureJournalTail(b *testing.B) {
	db := benchDB(b, "")
	tradeTable(b, db)
	miner := journal.NewMiner(db)
	sub := miner.Tail(journal.Filter{Tables: []string{"trades"}}, b.N+1024)
	defer sub.Cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Insert("trades", tradeRow(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Drain to verify capture kept up.
	got := 0
	for len(sub.C) > 0 {
		<-sub.C
		got++
	}
	if got+int(sub.Overflow()) != b.N {
		b.Fatalf("captured %d of %d", got, b.N)
	}
}

func BenchmarkE1CaptureJournalMineBatch(b *testing.B) {
	db := benchDB(b, b.TempDir())
	tradeTable(b, db)
	for i := 0; i < 10000; i++ {
		db.Insert("trades", tradeRow(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if _, err := journal.NewMiner(db).Mine(0, journal.Filter{}, func(*event.Event) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if n != 10000 {
			b.Fatalf("mined %d", n)
		}
	}
	b.ReportMetric(10000, "events/op")
}

func BenchmarkE1CaptureQueryDiff(b *testing.B) {
	db := benchDB(b, "")
	tradeTable(b, db)
	for i := 0; i < 1000; i++ {
		db.Insert("trades", tradeRow(i))
	}
	d := query.NewDiffer("hot", query.New("trades").Where("price > 990").Select("sym", "price", "qty"), db, "qty")
	if _, err := d.Poll(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Insert("trades", map[string]val.Value{
			"sym": val.String("X"), "price": val.Float(999), "qty": val.Int(int64(1000 + i)),
		})
		deltas, err := d.Poll()
		if err != nil {
			b.Fatal(err)
		}
		if len(deltas) != 1 {
			b.Fatalf("deltas = %d", len(deltas))
		}
	}
}

// --- E2: staging-area (queue) performance ---------------------------

func benchQueue(b *testing.B, dir string) (*storage.DB, *queue.Queue) {
	b.Helper()
	db := benchDB(b, dir)
	qm := queue.NewManager(db)
	b.Cleanup(qm.Close)
	q, err := qm.Create("bench", queue.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return db, q
}

func BenchmarkE2EnqueueVolatile(b *testing.B) {
	_, q := benchQueue(b, "")
	ev := event.New("e", map[string]any{"n": 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Enqueue(ev, queue.EnqueueOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2EnqueueDurable(b *testing.B) {
	_, q := benchQueue(b, b.TempDir())
	ev := event.New("e", map[string]any{"n": 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Enqueue(ev, queue.EnqueueOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2RoundTripVolatile(b *testing.B) {
	_, q := benchQueue(b, "")
	ev := event.New("e", map[string]any{"n": 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Enqueue(ev, queue.EnqueueOptions{}); err != nil {
			b.Fatal(err)
		}
		msg, ok, err := q.Dequeue("bench")
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
		if err := q.Ack(msg.Receipt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2TransactionalBatch(b *testing.B) {
	for _, batch := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			db, q := benchQueue(b, "")
			ev := event.New("e", map[string]any{"n": 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txn := db.Begin()
				for j := 0; j < batch; j++ {
					if _, err := q.EnqueueTx(txn, ev, queue.EnqueueOptions{}); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := txn.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch), "msgs/commit")
		})
	}
}

// --- E3: pub/sub subscription matching (expressions as data) --------

// The naive arm — every subscription's predicate evaluated per match —
// is BenchmarkE3MatchNaive in internal/pubsub, next to the oracle.
func setupBroker(b *testing.B, n int) *pubsub.Broker {
	b.Helper()
	br := pubsub.NewBroker()
	for i := 0; i < n; i++ {
		filter := fmt.Sprintf("sym = 'S%d' AND price > %d", i%1000, i%500)
		if err := br.Subscribe(fmt.Sprintf("s%d", i), "x", filter, func(pubsub.Delivery) {}); err != nil {
			b.Fatal(err)
		}
	}
	return br
}

func BenchmarkE3Match(b *testing.B) {
	for _, n := range []int{100, 10000, 100000} {
		b.Run(fmt.Sprintf("indexed/subs=%d", n), func(b *testing.B) {
			br := setupBroker(b, n)
			ev := event.New("trade", map[string]any{"sym": "S7", "price": 600})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := br.MatchOnly(ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: large rule sets ---------------------------------------------

// The naive arm — every rule evaluated per match — is
// BenchmarkE4RulesNaive in internal/rules, next to the oracle.
func setupRules(b *testing.B, n int) *rules.Engine {
	b.Helper()
	e := rules.NewEngine()
	for i := 0; i < n; i++ {
		cond := fmt.Sprintf("site = 'site%d' AND level >= %d", i%1000, i%10)
		if _, err := e.Add(fmt.Sprintf("r%d", i), cond, i%3, nil); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

func BenchmarkE4Rules(b *testing.B) {
	for _, n := range []int{100, 10000, 100000} {
		b.Run(fmt.Sprintf("indexed/rules=%d", n), func(b *testing.B) {
			e := setupRules(b, n)
			ev := event.New("sensor", map[string]any{"site": "site7", "level": 5})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Match(ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: frequently changing rule sets -------------------------------

func BenchmarkE5RuleChurn(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("base=%d", n), func(b *testing.B) {
			e := setupRules(b, n)
			ev := event.New("sensor", map[string]any{"site": "site7", "level": 5})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("churn%d", i)
				if _, err := e.Add(name, fmt.Sprintf("site = 'site%d'", i%1000), 0, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Match(ev); err != nil {
					b.Fatal(err)
				}
				if err := e.Remove(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: continuous queries, incremental maintenance -----------------

// The recompute arm — results rescanned from the window per event — is
// BenchmarkE6CQRecompute in internal/cq, next to the oracle.
func BenchmarkE6CQ(b *testing.B) {
	for _, w := range []int{1024, 16384, 65536} {
		b.Run(fmt.Sprintf("incremental/window=%d", w), func(b *testing.B) {
			q, err := cq.New(cq.Def{
				Name:    "bench",
				GroupBy: []string{"sym"},
				Aggs: []cq.AggDef{
					{Alias: "n", Kind: cq.Count},
					{Alias: "avg", Kind: cq.Avg, Attr: "price"},
				},
				Window: cq.Window{Kind: cq.CountWindow, Size: w},
			})
			if err != nil {
				b.Fatal(err)
			}
			next := tradeStream(1, 8)
			// Pre-fill the window.
			for i := 0; i < w; i++ {
				q.Feed(next())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Feed(next()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: CEP pattern matching -----------------------------------------

func BenchmarkE7CEP(b *testing.B) {
	strategies := map[string]cep.Strategy{
		"strict":         cep.Strict,
		"skip-till-next": cep.SkipTillNext,
		"skip-till-any":  cep.SkipTillAny,
	}
	for _, steps := range []int{2, 3, 5} {
		for name, strat := range strategies {
			b.Run(fmt.Sprintf("%s/steps=%d", name, steps), func(b *testing.B) {
				pb := cep.NewPattern("bench")
				for s := 0; s < steps; s++ {
					alias := fmt.Sprintf("s%d", s)
					guard := "sym = 'SYM000'"
					if s > 0 {
						guard = fmt.Sprintf("sym = 'SYM000' AND price > s%d.price", s-1)
					}
					pb = pb.Next(alias, "trade", guard)
				}
				p, err := pb.Within(time.Minute).Strategy(strat).Build()
				if err != nil {
					b.Fatal(err)
				}
				m := cep.NewShared()
				m.MaxInstances = 512
				if err := m.Add(p); err != nil {
					b.Fatal(err)
				}
				next := tradeStream(2, 4)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Feed(next())
				}
			})
		}
	}
}

// --- E9: end-to-end VIRT pipeline --------------------------------------

func BenchmarkE9EndToEnd(b *testing.B) {
	for _, selectivity := range []string{"0.1pct", "1pct", "10pct"} {
		threshold := map[string]float64{"0.1pct": 11.988, "1pct": 11.88, "10pct": 10.8}[selectivity]
		b.Run("selectivity="+selectivity, func(b *testing.B) {
			eng, err := core.Open(core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			delivered := 0
			eng.Subscribe("s", "ops", fmt.Sprintf("level > %g", threshold), func(pubsub.Delivery) {
				delivered++
			})
			// Levels uniform on [0, 12): the thresholds above cut off the
			// share of readings their names say.
			rng := rand.New(rand.NewSource(4))
			events := make([]*event.Event, 10000)
			for i := range events {
				events[i] = event.New("sensor.reading", map[string]any{
					"site": fmt.Sprintf("site-%02d", rng.Intn(16)), "level": 12 * rng.Float64()})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, ev := range events {
					if err := eng.Ingest(ev); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(delivered)/float64(b.N*len(events))*100, "notified_pct")
		})
	}
}

// --- E10: recovery -----------------------------------------------------

func BenchmarkE10Recovery(b *testing.B) {
	for _, rows := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			dir := b.TempDir()
			db, err := storage.Open(storage.Options{Dir: dir})
			if err != nil {
				b.Fatal(err)
			}
			s, _ := storage.NewSchema("t", []storage.Column{
				{Name: "k", Kind: val.KindInt, NotNull: true},
				{Name: "v", Kind: val.KindString},
			}, "k")
			db.CreateTable(s)
			for i := 0; i < rows; i++ {
				db.Insert("t", map[string]val.Value{
					"k": val.Int(int64(i)), "v": val.String("payload-payload"),
				})
			}
			db.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := storage.Open(storage.Options{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				tbl, _ := db.Table("t")
				if tbl.Len() != rows {
					b.Fatalf("recovered %d of %d", tbl.Len(), rows)
				}
				db.Close()
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}

// --- E11: internal vs external evaluation ------------------------------

func e11Engine(b *testing.B) *core.Engine {
	b.Helper()
	eng, err := core.Open(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	for i := 0; i < 1000; i++ {
		eng.AddRule(fmt.Sprintf("r%d", i), fmt.Sprintf("sym = 'S%d'", i), 0, nil)
	}
	return eng
}

func BenchmarkE11InternalEval(b *testing.B) {
	eng := e11Engine(b)
	ev := event.New("trade", map[string]any{"sym": "S7", "price": 10.0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Ingest(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11ExternalEval(b *testing.B) {
	eng := e11Engine(b)
	srv, err := server.Start(eng, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ev := event.New("trade", map[string]any{"sym": "S7", "price": 10.0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Publish(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E13: sharded batch-ingest pipeline --------------------------------

// e13Engine builds an engine with 1000 indexed rules and one selective
// subscription — the same realistic match cost as E11 — in either
// synchronous (shards == 0) or sharded-async mode.
func e13Engine(b *testing.B, shards int) *core.Engine {
	b.Helper()
	eng, err := core.Open(core.Config{Shards: shards, ShardBuffer: 4096})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	for i := 0; i < 1000; i++ {
		if err := eng.AddRule(fmt.Sprintf("r%d", i), fmt.Sprintf("sym = 'S%d'", i), 0, nil); err != nil {
			b.Fatal(err)
		}
	}
	var delivered atomic.Int64
	if err := eng.Subscribe("hot", "ops", "price > 990", func(pubsub.Delivery) {
		delivered.Add(1)
	}); err != nil {
		b.Fatal(err)
	}
	return eng
}

// e13Events pre-generates events with 61 types (spreads over the
// default by-type shard key) and 1000 symbols (exercises the index).
func e13Events(n int) []*event.Event {
	evs := make([]*event.Event, n)
	for i := range evs {
		evs[i] = event.New(fmt.Sprintf("trade%d", i%61), map[string]any{
			"sym":   fmt.Sprintf("S%d", i%1000),
			"price": float64(i % 1000),
		})
	}
	return evs
}

// BenchmarkE13IngestSingleThreaded is the baseline the pipeline is
// measured against: one goroutine, one event per call, synchronous.
func BenchmarkE13IngestSingleThreaded(b *testing.B) {
	eng := e13Engine(b, 0)
	evs := e13Events(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Ingest(evs[i%len(evs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13IngestBatch measures synchronous batching: amortized
// match scratch on a single goroutine.
func BenchmarkE13IngestBatch(b *testing.B) {
	for _, batch := range []int{16, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			eng := e13Engine(b, 0)
			evs := e13Events(batch)
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				if err := eng.IngestBatch(evs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
}

// BenchmarkE13ShardedIngest drives the async pipeline from parallel
// producers. ns/op is per event end to end (Flush included), so
// ops/sec here versus BenchmarkE13IngestSingleThreaded is the
// pipeline's speedup.
func BenchmarkE13ShardedIngest(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			eng := e13Engine(b, shards)
			evs := e13Events(4096)
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1)
					if err := eng.Ingest(evs[int(i)%len(evs)]); err != nil {
						b.Error(err)
						return
					}
				}
			})
			eng.Flush()
			b.StopTimer()
		})
	}
}

// BenchmarkE13ShardedIngestBatch combines both levers: parallel
// producers submitting batches into the sharded pipeline.
func BenchmarkE13ShardedIngestBatch(b *testing.B) {
	const batch = 256
	for _, shards := range []int{4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			eng := e13Engine(b, shards)
			evs := e13Events(batch)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := eng.IngestBatch(evs); err != nil {
						b.Error(err)
						return
					}
				}
			})
			eng.Flush()
			b.StopTimer()
			b.ReportMetric(batch, "events/op")
		})
	}
}

// --- E14: external streaming path --------------------------------------

// BenchmarkE14StreamingPush measures the end-to-end external streaming
// path: events published on one connection, matched in the engine, and
// pushed as EVT lines to a subscriber on another connection — the
// §2.2.c.iii comparison partner of BenchmarkE11InternalEval with
// delivery over the wire instead of a function call.
func BenchmarkE14StreamingPush(b *testing.B) {
	eng := e11Engine(b)
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{SubBuffer: 8192})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	subConn, err := client.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer subConn.Close()
	sub, err := subConn.Subscribe("all", "", 8192)
	if err != nil {
		b.Fatal(err)
	}
	pub, err := client.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	ev := event.New("trade", map[string]any{"sym": "S7", "price": 10.0})
	batch := make([]*client.Event, 64)
	for i := range batch {
		batch[i] = ev
	}
	b.ResetTimer()
	received := 0
	for received < b.N {
		want := b.N - received
		if want > len(batch) {
			want = len(batch)
		}
		if _, err := pub.PublishBatch(batch[:want]); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < want; i++ {
			if _, ok := <-sub.C; !ok {
				b.Fatal("subscription closed")
			}
		}
		received += want
	}
	if d := sub.Dropped(); d != 0 {
		b.Fatalf("dropped %d pushes client-side", d)
	}
}

// BenchmarkE14WirePublishBatch isolates the ingest half of the wire:
// PUBB batches feeding Engine.IngestBatch, no subscribers attached.
func BenchmarkE14WirePublishBatch(b *testing.B) {
	eng := e11Engine(b)
	srv, err := server.Start(eng, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	pub, err := client.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	ev := event.New("trade", map[string]any{"sym": "S7", "price": 10.0})
	batch := make([]*client.Event, 64)
	for i := range batch {
		batch[i] = ev
	}
	b.ResetTimer()
	sent := 0
	for sent < b.N {
		want := b.N - sent
		if want > len(batch) {
			want = len(batch)
		}
		if _, err := pub.PublishBatch(batch[:want]); err != nil {
			b.Fatal(err)
		}
		sent += want
	}
}

// BenchmarkE14ContinuousQueryWire streams incremental CQ results over
// the wire: each published trade updates a windowed aggregate whose
// result event is pushed back.
func BenchmarkE14ContinuousQueryWire(b *testing.B) {
	eng, err := core.Open(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{SubBuffer: 8192})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	subConn, err := client.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer subConn.Close()
	sub, err := subConn.ContinuousQuery("vwap", client.CQSpec{
		GroupBy: []string{"sym"},
		Aggs: []client.CQAgg{
			{Alias: "n", Kind: client.Count},
			{Alias: "avg_px", Kind: client.Avg, Attr: "price"},
		},
		Window: client.CQWindow{Kind: client.CountWindow, Size: 256},
	}, 8192)
	if err != nil {
		b.Fatal(err)
	}
	pub, err := client.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	next := tradeStream(7, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pub.Publish(next()); err != nil {
			b.Fatal(err)
		}
		if _, ok := <-sub.C; !ok {
			b.Fatal("subscription closed")
		}
	}
}

// --- E15: ephemeral vs durable wire delivery ---------------------------

// e15Stack boots a served engine for durable-delivery benchmarks.
func e15Stack(b *testing.B, dir string) (*core.Engine, *server.Server) {
	b.Helper()
	eng, err := core.Open(core.Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{SubBuffer: 8192})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return eng, srv
}

func e15Publisher(b *testing.B, srv *server.Server) *client.Conn {
	b.Helper()
	pub, err := client.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pub.Close() })
	return pub
}

// e15Drain receives n deliveries, tolerating client-side drops (a
// dropped auto-ack or historical delivery never comes back, so waiting
// for it would hang the benchmark).
func e15Drain(b *testing.B, ds *client.DurableSub, n int) {
	b.Helper()
	received := 0
	for received < n {
		select {
		case _, ok := <-ds.C:
			if !ok {
				b.Error("delivery channel closed")
				return
			}
			received++
		case <-time.After(100 * time.Millisecond):
			if received+int(ds.Dropped()) >= n {
				return
			}
		}
	}
}

// e15Publish streams n events in PUBB batches.
func e15Publish(b *testing.B, pub *client.Conn, n int) {
	b.Helper()
	ev := event.New("trade", map[string]any{"sym": "S7", "price": 10.0})
	batch := make([]*client.Event, 64)
	for i := range batch {
		batch[i] = ev
	}
	for sent := 0; sent < n; {
		want := n - sent
		if want > len(batch) {
			want = len(batch)
		}
		if _, err := pub.PublishBatch(batch[:want]); err != nil {
			b.Fatal(err)
		}
		sent += want
	}
}

// BenchmarkE15DurableAutoAck measures the durable delivery path end to
// end with server-side acknowledgment: publish → broker match → staged
// INSERT into the queue table → WaitDequeue consumer → QEVT push →
// server ack. The per-event gap to BenchmarkE14StreamingPush is the
// price of recoverable delivery (the paper's staging-area trade,
// §2.2.b).
func BenchmarkE15DurableAutoAck(b *testing.B) {
	_, srv := e15Stack(b, "")
	sub, err := client.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	ds, err := sub.DurableSubscribe("bench", "", client.DurableOptions{AutoAck: true, Buffer: 8192})
	if err != nil {
		b.Fatal(err)
	}
	pub := e15Publisher(b, srv)
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		e15Drain(b, ds, b.N)
	}()
	e15Publish(b, pub, b.N)
	<-done
}

// BenchmarkE15DurableManualAck is the full at-least-once contract:
// every delivery is individually acknowledged over the wire. Acks run
// on 8 goroutines so round trips overlap, as a real consumer would.
func BenchmarkE15DurableManualAck(b *testing.B) {
	_, srv := e15Stack(b, "")
	sub, err := client.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	ds, err := sub.DurableSubscribe("bench", "", client.DurableOptions{Buffer: 8192})
	if err != nil {
		b.Fatal(err)
	}
	pub := e15Publisher(b, srv)
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		acks := make(chan client.Delivery, 256)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for d := range acks {
					if err := d.Ack(); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		for i := 0; i < b.N; i++ {
			d, ok := <-ds.C
			if !ok {
				b.Error("delivery channel closed")
				break
			}
			acks <- d
		}
		close(acks)
		wg.Wait()
	}()
	e15Publish(b, pub, b.N)
	<-done
}

// BenchmarkE15ReplayBackfill measures journal-backfill throughput:
// b.N staged-and-consumed messages are resurrected from the WAL and
// streamed back over the wire.
func BenchmarkE15ReplayBackfill(b *testing.B) {
	_, srv := e15Stack(b, b.TempDir())
	sub, err := client.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	ds, err := sub.DurableSubscribe("bench", "", client.DurableOptions{AutoAck: true, Buffer: 8192})
	if err != nil {
		b.Fatal(err)
	}
	pub := e15Publisher(b, srv)
	e15Publish(b, pub, b.N)
	e15Drain(b, ds, b.N)
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		e15Drain(b, ds, b.N)
	}()
	n, _, err := ds.Replay(0)
	if err != nil {
		b.Fatal(err)
	}
	if n != b.N {
		b.Fatalf("replayed %d, want %d", n, b.N)
	}
	<-done
}

// --- E16: database-mediated capture over the wire ----------------------

// e16Stack serves an engine with a captured stock table: an AFTER
// trigger (registered over the wire, as a client would) turns every
// committed change into a "db.stock.<op>" event, and a subscriber on a
// second connection receives the fan-out.
func e16Stack(b *testing.B) (*client.Conn, *client.Subscription) {
	b.Helper()
	eng, err := core.Open(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{SubBuffer: 8192})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	w, err := client.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { w.Close() })
	err = w.CreateTable(client.TableSpec{Name: "stock", Columns: []client.ColumnSpec{
		{Name: "sku", Kind: "string", NotNull: true},
		{Name: "qty", Kind: "int", NotNull: true},
	}})
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Trigger("cap", client.TriggerSpec{Table: "stock"}); err != nil {
		b.Fatal(err)
	}
	subConn, err := client.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { subConn.Close() })
	sub, err := subConn.Subscribe("caps", "table = 'stock'", 8192)
	if err != nil {
		b.Fatal(err)
	}
	return w, sub
}

// BenchmarkE16WireDMLCapture measures database-mediated capture end to
// end: a wire INSERT commits through the storage engine, the AFTER
// trigger converts the change to an event, and the fan-out pushes it
// to a subscriber on another connection. Compare with
// BenchmarkE16WireDirectPub — the gap is what the paper's §2.2.a.i
// capture path costs over publishing the same fact directly.
func BenchmarkE16WireDMLCapture(b *testing.B) {
	w, sub := e16Stack(b)
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			if _, ok := <-sub.C; !ok {
				b.Error("subscription closed")
				return
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		if _, err := w.Insert("stock", map[string]any{"sku": "w", "qty": i}); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	if d := sub.Dropped(); d != 0 {
		b.Fatalf("dropped %d pushes client-side", d)
	}
}

// BenchmarkE16WireDirectPub is the baseline: the same fact published
// as a plain event, skipping table commit and trigger evaluation.
func BenchmarkE16WireDirectPub(b *testing.B) {
	w, sub := e16Stack(b)
	ev := event.New("db.stock.insert", map[string]any{
		"table": "stock", "op": "insert", "new_sku": "w", "new_qty": 1,
	})
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			if _, ok := <-sub.C; !ok {
				b.Error("subscription closed")
				return
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		if _, err := w.Publish(ev); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	if d := sub.Dropped(); d != 0 {
		b.Fatalf("dropped %d pushes client-side", d)
	}
}

// --- E17: zero-copy fan-out --------------------------------------------

// e17Event builds one fresh fan-out event (fresh so the encode-once
// cache starts cold, as it does for every newly-ingested event).
func e17Event(i int) *event.Event {
	return event.New("trade", map[string]any{
		"sym":   fmt.Sprintf("S%d", i%64),
		"price": float64(i%1000) + 0.5,
		"qty":   i,
		"venue": "XNYS",
	})
}

// e17RenderLine builds the wire line one sink pays per delivery.
func e17RenderLine(buf []byte, data []byte) []byte {
	buf = append(buf[:0], "EVT sub "...)
	return append(buf, data...)
}

// BenchmarkE17FanoutEncodeOnce measures 1-event→64-sink fan-out with
// the encode-once cache: the payload is marshaled once per event and
// every sink shares it, paying only a line build. Compare with
// BenchmarkE17FanoutPerSinkMarshal — the pre-change delivery cost —
// for the §2.2.c scalability claim carried through to delivery:
// fan-out is O(1 encode + N writes), not O(N encodes).
func BenchmarkE17FanoutEncodeOnce(b *testing.B) {
	const sinks = 64
	evs := make([]*event.Event, b.N)
	for i := range evs {
		evs[i] = e17Event(i)
	}
	var buf []byte
	var bytesOut int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < sinks; s++ {
			data, err := evs[i].EncodedJSON()
			if err != nil {
				b.Fatal(err)
			}
			buf = e17RenderLine(buf, data)
			bytesOut += len(buf)
		}
	}
	b.StopTimer()
	reportEventsPerSec(b, b.N)
	_ = bytesOut
}

// BenchmarkE17FanoutPerSinkMarshal is the pre-change baseline: every
// sink re-marshals the event, as conn.pushEvent did before the
// encode-once cache.
func BenchmarkE17FanoutPerSinkMarshal(b *testing.B) {
	const sinks = 64
	evs := make([]*event.Event, b.N)
	for i := range evs {
		evs[i] = e17Event(i)
	}
	var buf []byte
	var bytesOut int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < sinks; s++ {
			data, err := event.MarshalJSONEvent(evs[i])
			if err != nil {
				b.Fatal(err)
			}
			buf = e17RenderLine(buf, data)
			bytesOut += len(buf)
		}
	}
	b.StopTimer()
	reportEventsPerSec(b, b.N)
	_ = bytesOut
}

// e17QueueFanout builds a durable (fsync-per-commit) broker fanning
// one event into n queue-backed subscriptions.
func e17QueueFanout(b *testing.B, n int) (*pubsub.Broker, []*queue.Queue) {
	b.Helper()
	db, err := storage.Open(storage.Options{Dir: b.TempDir(), SyncEvery: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	qm := queue.NewManager(db)
	b.Cleanup(qm.Close)
	br := pubsub.NewBroker()
	qs := make([]*queue.Queue, n)
	for i := 0; i < n; i++ {
		q, err := qm.Create(fmt.Sprintf("q%d", i), queue.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := br.SubscribeQueue(fmt.Sprintf("qs%d", i), "bench", "", q, 0); err != nil {
			b.Fatal(err)
		}
		qs[i] = q
	}
	return br, qs
}

// BenchmarkE17QueueGroupCommit measures durable fan-out with group
// commit: one event matching 16 queue-backed subscriptions stages all
// 16 messages under a single transaction — one WAL append, one fsync.
func BenchmarkE17QueueGroupCommit(b *testing.B) {
	const sinks = 16
	br, _ := e17QueueFanout(b, sinks)
	p := br.NewPublisher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := p.Publish(e17Event(i))
		if err != nil {
			b.Fatal(err)
		}
		if n != sinks {
			b.Fatalf("delivered %d, want %d", n, sinks)
		}
	}
	b.StopTimer()
	reportEventsPerSec(b, b.N)
}

// BenchmarkE17QueuePerMessageCommit is the pre-change baseline: the
// same durable fan-out paying one transaction (and one fsync) per
// queue delivery.
func BenchmarkE17QueuePerMessageCommit(b *testing.B) {
	const sinks = 16
	_, qs := e17QueueFanout(b, sinks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e17Event(i)
		for _, q := range qs {
			if _, err := q.Enqueue(ev, queue.EnqueueOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	reportEventsPerSec(b, b.N)
}

// BenchmarkE17WireFanout is the end-to-end check: one published event
// pushed to 64 subscriber connections over TCP, encode-once cache and
// coalesced writer included.
func BenchmarkE17WireFanout(b *testing.B) {
	const sinks = 64
	eng, err := core.Open(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{SubBuffer: 8192})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	subs := make([]*client.Subscription, sinks)
	for i := range subs {
		c, err := client.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		sub, err := c.Subscribe("s", "", 8192)
		if err != nil {
			b.Fatal(err)
		}
		subs[i] = sub
	}
	pub := e15Publisher(b, srv)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, sub := range subs {
		wg.Add(1)
		go func(sub *client.Subscription) {
			defer wg.Done()
			// Drain tolerating client-side drops: a dropped push never
			// arrives, so waiting for exactly b.N events would hang the
			// benchmark if one consumer goroutine ever falls behind its
			// channel buffer.
			received := 0
			for received < b.N {
				select {
				case _, ok := <-sub.C:
					if !ok {
						b.Error("subscription closed")
						return
					}
					received++
				case <-time.After(100 * time.Millisecond):
					if received+int(sub.Dropped()) >= b.N {
						return
					}
				}
			}
		}(sub)
	}
	e15Publish(b, pub, b.N)
	wg.Wait()
	b.StopTimer()
	reportEventsPerSec(b, b.N)
}

// BenchmarkE19WireTextFanout / BenchmarkE19WireBinaryFanout compare
// the two negotiated wires (PROTOCOL.md) on the same fan-out shape as
// E17: one published event pushed to 64 subscriber connections. The
// binary variant differs only in dialing with WithBinary, which flips
// every connection to length-prefixed frames — zero per-sink payload
// copies on the server, zero-copy frame decode on each client.
func BenchmarkE19WireTextFanout(b *testing.B)   { benchE19Fanout(b) }
func BenchmarkE19WireBinaryFanout(b *testing.B) { benchE19Fanout(b, client.WithBinary()) }

func benchE19Fanout(b *testing.B, opts ...client.Option) {
	const sinks = 64
	eng, err := core.Open(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{SubBuffer: 8192})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	subs := make([]*client.Subscription, sinks)
	for i := range subs {
		c, err := client.Dial(srv.Addr(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		sub, err := c.Subscribe("s", "", 8192)
		if err != nil {
			b.Fatal(err)
		}
		subs[i] = sub
	}
	pub, err := client.Dial(srv.Addr(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pub.Close() })
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, sub := range subs {
		wg.Add(1)
		go func(sub *client.Subscription) {
			defer wg.Done()
			// Same drop-tolerant drain as E17: a dropped push never
			// arrives, so waiting for exactly b.N events would hang.
			received := 0
			for received < b.N {
				select {
				case _, ok := <-sub.C:
					if !ok {
						b.Error("subscription closed")
						return
					}
					received++
				case <-time.After(100 * time.Millisecond):
					if received+int(sub.Dropped()) >= b.N {
						return
					}
				}
			}
		}(sub)
	}
	e15Publish(b, pub, b.N)
	wg.Wait()
	b.StopTimer()
	reportEventsPerSec(b, b.N)
}

// reportEventsPerSec attaches an events/sec metric alongside ns/op.
func reportEventsPerSec(b *testing.B, events int) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/sec")
	}
}

// --- E18: WAL-shipping replication ---

// e18Leader boots a durable leader with persisted wire subscriptions,
// served over TCP, plus a trades table to commit into.
func e18Leader(b *testing.B) (*core.Engine, *server.Server) {
	b.Helper()
	eng, err := core.Open(core.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	eng.Broker.PersistOnlyQueueSubs(true)
	if err := eng.Broker.AttachStore(eng.DB, "wire_subs", eng.Queues, queue.Config{}, nil); err != nil {
		b.Fatal(err)
	}
	tradeTable(b, eng.DB)
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return eng, srv
}

// BenchmarkE18ReplicationThroughput measures WAL shipping end to end:
// b.N committed transactions on the leader must be encoded, streamed
// over TCP, decoded, re-appended to the follower's WAL, and applied to
// its tables. events/sec is the replicated-commit rate the follower
// sustains; ns/op includes the leader-side commit itself, so the
// replication overhead is the gap to a leader-only insert loop.
func BenchmarkE18ReplicationThroughput(b *testing.B) {
	leng, lsrv := e18Leader(b)
	defer func() { lsrv.Close(); leng.Close() }()
	feng, err := core.Open(core.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer feng.Close()
	f, err := repl.Start(repl.Config{Addr: lsrv.Addr(), Engine: feng})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if !f.WaitCursor(leng.DB.WAL().NextLSN(), 30*time.Second) {
		b.Fatal("follower never caught up with setup records")
	}
	row := map[string]val.Value{
		"sym": val.String("ACME"), "price": val.Float(101.5), "qty": val.Int(100),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := leng.DB.Insert("trades", row); err != nil {
			b.Fatal(err)
		}
	}
	if !f.WaitCursor(leng.DB.WAL().NextLSN(), 120*time.Second) {
		b.Fatalf("follower stalled at cursor %d", f.Cursor())
	}
	b.StopTimer()
	reportEventsPerSec(b, b.N)
}

// BenchmarkE18FailoverResume measures the failover path a consumer
// actually experiences: leader dies → follower promotes (re-attaching
// durable queue state) → a reconnecting durable consumer receives its
// first staged event from the new leader. The reported failover-ms is
// promote-to-first-delivery; setup (staging events, catch-up) is off
// the clock.
func BenchmarkE18FailoverResume(b *testing.B) {
	var totalFailover time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		leng, lsrv := e18Leader(b)
		feng, err := core.Open(core.Config{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		f, err := repl.Start(repl.Config{
			Addr: lsrv.Addr(), Engine: feng,
			OnPromote: func() {
				feng.Broker.PersistOnlyQueueSubs(true)
				if err := feng.Broker.AttachStore(feng.DB, "wire_subs", feng.Queues, queue.Config{}, nil); err != nil {
					b.Error(err)
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		// Bind a durable subscription, then stage events with no live
		// consumer: the failover's redelivery obligation.
		c1, err := client.Dial(lsrv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c1.DurableSubscribe("fo", "", client.DurableOptions{}); err != nil {
			b.Fatal(err)
		}
		c1.Close()
		pub, err := client.Dial(lsrv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		evs := make([]*event.Event, 32)
		for j := range evs {
			evs[j] = event.New("order", map[string]any{"qty": 900})
		}
		if _, err := pub.PublishBatch(evs); err != nil {
			b.Fatal(err)
		}
		pub.Close()
		if !f.WaitCursor(leng.DB.WAL().NextLSN(), 30*time.Second) {
			b.Fatal("follower never caught up")
		}
		lsrv.Close()
		leng.Close()

		b.StartTimer()
		start := time.Now()
		if _, err := f.Promote(); err != nil {
			b.Fatal(err)
		}
		fsrv, err := server.StartConfig(feng, "127.0.0.1:0", server.Config{})
		if err != nil {
			b.Fatal(err)
		}
		c2, err := client.Dial(fsrv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		ds, err := c2.DurableSubscribe("fo", "", client.DurableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		select {
		case d := <-ds.C:
			if err := d.Ack(); err != nil {
				b.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			b.Fatal("no redelivery from promoted leader")
		}
		totalFailover += time.Since(start)
		b.StopTimer()
		c2.Close()
		fsrv.Close()
		feng.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(totalFailover.Milliseconds())/float64(b.N), "failover-ms")
}
