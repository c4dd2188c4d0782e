package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"eventdb/client"
	"eventdb/internal/cep"
	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/frame"
	"eventdb/internal/pubsub"
	"eventdb/internal/queue"
	"eventdb/internal/storage"
	"eventdb/internal/wal"
	"eventdb/internal/wiredb"
)

// The layer replays of the traced run: after the live phases, the same
// generated inputs are pushed through each layer's public functions
// inside the benchmark process and timed from outside. A workload
// replays only the layers it exercises; every other per-layer metric
// stays 0, which is what "this workload does not touch that layer"
// looks like in the output.

const (
	// replayOps is how many of the workload's ops each replay covers.
	replayOps = 20000
	// spanCalls is the most leading calls of a replay that are recorded
	// as individual spans; the rest are timed as one block, so that the
	// clock reads do not drown calls that take tens of nanoseconds.
	spanCalls = 256
)

// layerRun collects the per-layer metrics of one traced run.
type layerRun struct {
	tr      *tracer
	scratch string
	metrics map[string]float64
}

func (lr *layerRun) set(name string, v float64) { lr.metrics[name] = v }

// replayError carries a replay failure out of the timed closures;
// runTraced recovers it and returns it as an ordinary error.
type replayError struct{ err error }

func (lr *layerRun) must(err error) {
	if err != nil {
		panic(replayError{err})
	}
}

// timeCalls runs fn(0..n-1) in order under a span named layer and
// returns the mean nanoseconds per call. The leading calls (a quarter
// of them, at most spanCalls) are recorded as child spans, one per
// call, sharing their op id with the live phases' spans; the mean is
// taken over the block-timed remainder.
func (lr *layerRun) timeCalls(layer string, n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	root := lr.tr.begin("replay."+layer, -1)
	defer lr.tr.end(root)
	m := min(n/4, spanCalls)
	for i := 0; i < m; i++ {
		sp := lr.tr.child(layer, int64(i), root)
		fn(i)
		lr.tr.end(sp)
	}
	// The generator's heap is large after the live phases; collecting
	// now keeps a mark phase from landing inside a block that may last
	// only milliseconds.
	runtime.GC()
	t0 := time.Now()
	for i := m; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n-m)
}

// eventJSONs marshals events the way Conn.Publish does.
func eventJSONs(evs []*client.Event) [][]byte {
	out := make([][]byte, len(evs))
	for i, ev := range evs {
		data, err := event.MarshalJSONEvent(ev)
		if err != nil {
			panic(replayError{err})
		}
		out[i] = data
	}
	return out
}

// replayFrame times the binary wire codec: decoding the byte stream A's
// publishes make, and building the EVT frame B receives.
func (lr *layerRun) replayFrame(jsons [][]byte) {
	var stream []byte
	for _, j := range jsons {
		stream = frame.AppendFrame(stream, frame.Pub, j)
	}
	fr := frame.NewReader(bufio.NewReaderSize(bytes.NewReader(stream), 1<<16))
	lr.set("frame.decode_ns_per_msg", lr.timeCalls("frame.decode", len(jsons), func(int) {
		_, _, err := fr.Next()
		lr.must(err)
	}))
	var buf []byte
	lr.set("frame.encode_ns_per_msg", lr.timeCalls("frame.encode", len(jsons), func(i int) {
		buf = frame.AppendEvt(buf[:0], "f0", jsons[i])
	}))
}

// replayEventCodec times the JSON event codec on both sides of the
// wire: the decode every PUB pays, and the first (cached) encode every
// pushed event pays.
func (lr *layerRun) replayEventCodec(jsons [][]byte) {
	decoded := make([]*event.Event, len(jsons))
	lr.set("event.json_decode_ns", lr.timeCalls("event.json_decode", len(jsons), func(i int) {
		ev, err := event.UnmarshalJSONEvent(jsons[i])
		lr.must(err)
		decoded[i] = ev
	}))
	lr.set("event.json_encode_ns", lr.timeCalls("event.json_encode", len(decoded), func(i int) {
		_, err := decoded[i].EncodedJSON()
		lr.must(err)
	}))
}

// registration is one SUB as the workload registers it.
type registration struct{ id, filter string }

// replayPubsub times the subscription index alone: registering the
// workload's filters, then matching its events.
func (lr *layerRun) replayPubsub(regs []registration, evs []*client.Event) {
	b := pubsub.NewBroker()
	nop := func(pubsub.Delivery) {}
	perSub := lr.timeCalls("pubsub.subscribe", len(regs), func(i int) {
		lr.must(b.Subscribe(regs[i].id, "bench", regs[i].filter, nop))
	})
	lr.set("pubsub.subscribe_us_per_sub", perSub/1e3)
	matches := 0
	lr.set("pubsub.match_ns_per_event", lr.timeCalls("pubsub.match", len(evs), func(i int) {
		ids, err := b.MatchOnly(evs[i])
		lr.must(err)
		matches += len(ids)
	}))
	if len(evs) > 0 {
		lr.set("pubsub.matches_per_event", float64(matches)/float64(len(evs)))
	}
}

// replayCEP times the shared automaton alone on the workload's patterns
// (none, for every workload but selective: the cost of an idle plane).
func (lr *layerRun) replayCEP(patterns map[string]client.PatternSpec, evs []*client.Event) {
	sh := cep.NewShared()
	for name, spec := range patterns {
		p, err := spec.Compile(name)
		lr.must(err)
		lr.must(sh.Add(p))
	}
	lr.set("cep.feed_ns_per_event", lr.timeCalls("cep.feed", len(evs), func(i int) {
		sh.Feed(evs[i])
	}))
}

// replayCore times the whole in-process engine on the workload's
// registrations with no-op handlers: what one event costs before any
// wire is involved. bind attaches the registrations to the engine.
func (lr *layerRun) replayCore(cfg core.Config, bind func(*core.Engine) error, evs []*client.Event) {
	eng, err := core.Open(cfg)
	lr.must(err)
	defer eng.Close()
	lr.must(bind(eng))
	const batch = 64
	perBatch := lr.timeCalls("core.ingest_batch", len(evs)/batch, func(i int) {
		lr.must(eng.IngestBatch(evs[i*batch : (i+1)*batch]))
	})
	lr.set("core.ingest_ns_per_event", perBatch/batch)
}

// replayQueue times durable staging alone on a scratch database:
// enqueue, then dequeue plus acknowledge.
func (lr *layerRun) replayQueue(evs []*client.Event) {
	dir := filepath.Join(lr.scratch, "replay-queue")
	db, err := storage.Open(storage.Options{Dir: dir})
	lr.must(err)
	defer os.RemoveAll(dir)
	defer db.Close()
	q, err := queue.NewManager(db).Create("replay", queue.Config{})
	lr.must(err)
	lr.set("queue.enqueue_ns_per_msg", lr.timeCalls("queue.enqueue", len(evs), func(i int) {
		_, err := q.Enqueue(evs[i], queue.EnqueueOptions{})
		lr.must(err)
	}))
	lr.set("queue.dequeue_ack_ns_per_msg", lr.timeCalls("queue.dequeue_ack", len(evs), func(int) {
		msg, ok, err := q.Dequeue("bench")
		if err != nil || !ok {
			lr.must(fmt.Errorf("queue replay: dequeue ok=%v err=%v", ok, err))
		}
		lr.must(q.Ack(msg.Receipt))
	}))
}

// replayWAL times the log alone: a buffered append (what the daemon
// does today) and an append made durable with SyncTo (what it would
// cost to make acknowledgements wait for the disk).
func (lr *layerRun) replayWAL(evs []*client.Event) {
	dir := filepath.Join(lr.scratch, "replay-wal")
	w, err := wal.Open(wal.Options{Dir: dir})
	lr.must(err)
	defer os.RemoveAll(dir)
	defer w.Close()
	payloads := make([][]byte, len(evs))
	for i, ev := range evs {
		payloads[i] = event.Encode(nil, ev)
	}
	lr.set("wal.append_ns", lr.timeCalls("wal.append", len(payloads), func(i int) {
		_, err := w.Append(1, payloads[i])
		lr.must(err)
	}))
	// An fsync costs a thousand appends; a few hundred are enough.
	lr.set("wal.fsync_ns", lr.timeCalls("wal.append_sync", min(len(payloads), 300), func(i int) {
		lsn, err := w.Append(1, payloads[i])
		if err == nil {
			err = w.SyncTo(lsn)
		}
		lr.must(err)
	}))
}

// replayDB times the database layers of dbmix alone: row inserts with
// the capture trigger attached, sealing, query build and run, and
// result encoding, on the same rows and queries the daemon saw.
func (lr *layerRun) replayDB(w *dbmix) {
	eng, err := core.Open(core.Config{})
	lr.must(err)
	defer eng.Close()
	spec, _ := json.Marshal(w.tableSpec())
	schema, err := wiredb.ParseTableSpec(spec)
	if err == nil {
		err = eng.DB.CreateTable(schema)
	}
	lr.must(err)
	for seq := 0; seq < w.sizes.preload; seq++ {
		_, err := wiredb.InsertRow(eng.DB, dbTable, w.rowValues(int64(seq)))
		lr.must(err)
	}
	// Seal the preload, as set-up does. The background sealer has taken
	// most of it already, so this call is not the one that is timed.
	sealed, err := eng.Compact(dbTable)
	if err == nil && len(sealed) != 1 {
		err = fmt.Errorf("db replay: compact: %d tables", len(sealed))
	}
	lr.must(err)

	// The capture path, as set-up builds it: trigger, then subscriber.
	tdef, err := client.TriggerSpec{Table: dbTable, Ops: []string{"insert"}}.Def("e23cap")
	if err == nil {
		_, err = eng.Triggers.Register(tdef)
	}
	var captured []*event.Event
	if err == nil {
		err = eng.Subscribe("cap", "bench", fmt.Sprintf("$type = 'db.%s.insert'", dbTable),
			func(d pubsub.Delivery) { captured = append(captured, d.Event) })
	}
	lr.must(err)
	inserts := replayOps / 4
	insertNS := lr.timeCalls("wiredb.insert_row", inserts, func(i int) {
		_, err := wiredb.InsertRow(eng.DB, dbTable, w.rowValues(w.insertSeq(int64(i))))
		lr.must(err)
	})
	lr.set("wiredb.insert_ns_per_row", insertNS)
	if len(captured) != inserts {
		lr.must(fmt.Errorf("db replay: captured %d events for %d inserts", len(captured), inserts))
	}
	lr.replayEventCodec(eventJSONs(captured))
	lr.replayPubsub([]registration{{"cap", fmt.Sprintf("$type = 'db.%s.insert'", dbTable)}}, captured)
	lr.replayCEP(nil, captured)

	// Queries: the scans the first cycles issue, and the aggregate, from
	// an empty unsealed tail. The replayed inserts are fewer than the
	// sealer's threshold, so this call seals all of them and is the one
	// seal that can be timed whole.
	t0 := time.Now()
	sp := lr.tr.begin("columnar.compact", -1)
	resealed, err := eng.Compact(dbTable)
	lr.tr.end(sp)
	sealNS := float64(time.Since(t0).Nanoseconds())
	if err == nil && (len(resealed) != 1 || resealed[0].SealedRows-sealed[0].SealedRows != inserts) {
		err = fmt.Errorf("db replay: second compact sealed %+v after %+v, want %d more rows", resealed, sealed, inserts)
	}
	lr.must(err)
	lr.set("columnar.seal_ns_per_row", sealNS/float64(inserts))
	const queries = 200
	var buildNS, scanNS, aggNS, encodeNS float64
	var rows, segs, pruned int
	run := func(name string, qs client.QuerySpec) float64 {
		raw, _ := json.Marshal(qs)
		t0 := time.Now()
		sp := lr.tr.begin("query.build", -1)
		parsed, err := wiredb.ParseQuerySpec(raw)
		lr.must(err)
		q, err := parsed.Build()
		lr.tr.end(sp)
		lr.must(err)
		buildNS += float64(time.Since(t0).Nanoseconds())
		t0 = time.Now()
		sp = lr.tr.begin(name, -1)
		res, plan, err := q.Explain(eng.DB)
		lr.tr.end(sp)
		lr.must(err)
		ran := float64(time.Since(t0).Nanoseconds())
		segs += plan.Segments
		pruned += plan.SegmentsPruned
		t0 = time.Now()
		sp = lr.tr.begin("wiredb.result_encode", -1)
		_, err = wiredb.MarshalResult(res)
		lr.tr.end(sp)
		lr.must(err)
		encodeNS += float64(time.Since(t0).Nanoseconds())
		rows += len(res.Rows)
		return ran
	}
	runtime.GC() // as in timeCalls
	for i := 0; i < queries; i++ {
		scanNS += run("query.run_scan", w.scanSpec(int64(i)))
		aggNS += run("query.run_agg", w.aggSpec())
	}
	lr.set("query.build_ns", buildNS/(2*queries))
	lr.set("query.run_scan_ns", scanNS/queries)
	lr.set("query.run_agg_ns", aggNS/queries)
	if segs > 0 {
		lr.set("query.segments_pruned_ratio", float64(pruned)/float64(segs))
	}
	if rows > 0 {
		lr.set("wiredb.result_encode_ns_per_row", encodeNS/float64(rows))
	}
	// One op before any wire: 16 inserts, a scan and an aggregate, each
	// query built, run and encoded.
	perQuery := buildNS/(2*queries) + encodeNS/(2*queries)
	lr.set("core.ingest_ns_per_event", dbInserts*insertNS+scanNS/queries+aggNS/queries+2*perQuery)
}

// layers implementations: which layers each workload replays.

// replayEvents generates the first replayOps ops' events.
func replayEvents(event func(k int64) *client.Event) []*client.Event {
	evs := make([]*client.Event, replayOps)
	for i := range evs {
		evs[i] = event(int64(i))
	}
	return evs
}

func (w *fanout) layers(lr *layerRun) {
	evs := replayEvents(w.gen.event)
	jsons := eventJSONs(evs)
	regs := make([]registration, fanoutSubs)
	for i := range regs {
		regs[i] = registration{fmt.Sprintf("f%d", i), ""}
	}
	lr.replayFrame(jsons)
	lr.replayEventCodec(jsons)
	lr.replayPubsub(regs, evs)
	lr.replayCEP(nil, evs)
	lr.replayCore(core.Config{}, bindSubs(regs), evs)
}

func (w *durable) layers(lr *layerRun) {
	evs := replayEvents(w.gen.event)
	regs := []registration{{durableQueue, ""}}
	lr.replayEventCodec(eventJSONs(evs))
	lr.replayPubsub(regs, evs)
	lr.replayCEP(nil, evs)
	lr.replayQueue(evs)
	lr.replayWAL(evs)
	dir := filepath.Join(lr.scratch, "replay-core")
	defer os.RemoveAll(dir)
	lr.replayCore(core.Config{Dir: dir}, func(eng *core.Engine) error {
		if _, err := eng.EnsureQueue(durableQueue, queue.Config{}); err != nil {
			return err
		}
		return eng.SubscribeQueue(durableQueue, "bench", "", durableQueue, 0)
	}, evs)
}

func (w *selective) layers(lr *layerRun) {
	evs := replayEvents(w.event)
	regs := make([]registration, 0, len(w.filters)+1)
	for i, f := range w.filters {
		regs = append(regs, registration{fmt.Sprintf("s%d", i), f.String()})
	}
	regs = append(regs, registration{"cep", "$type LIKE 'cep.%'"})
	patterns := make(map[string]client.PatternSpec, w.sizes.patterns)
	for p := 0; p < w.sizes.patterns; p++ {
		patterns[fmt.Sprintf("p%d", p)] = w.patternSpec(p)
	}
	lr.replayEventCodec(eventJSONs(evs))
	lr.replayPubsub(regs, evs)
	lr.replayCEP(patterns, evs)
	lr.replayCore(core.Config{}, func(eng *core.Engine) error {
		if err := bindSubs(regs)(eng); err != nil {
			return err
		}
		for name, spec := range patterns {
			raw, _ := json.Marshal(spec)
			if err := eng.RegisterPattern(name, raw); err != nil {
				return err
			}
		}
		return nil
	}, evs)
}

func (w *dbmix) layers(lr *layerRun) {
	// The live phases' per-command timings, which only the workload
	// could take now that an op is a whole cycle.
	lr.set("wiredb.insert_rtt_p50_us", p50(w.rtt["insert"]))
	lr.set("query.scan_rtt_p50_us", p50(w.rtt["scan"]))
	lr.set("query.agg_rtt_p50_us", p50(w.rtt["agg"]))
	lr.set("trigger.capture_p50_us", p50(w.capture))
	lr.replayDB(w)
}

// bindSubs registers SUBs with no-op handlers on an in-process engine.
func bindSubs(regs []registration) func(*core.Engine) error {
	return func(eng *core.Engine) error {
		for _, r := range regs {
			if err := eng.Subscribe(r.id, "bench", r.filter, func(pubsub.Delivery) {}); err != nil {
				return err
			}
		}
		return nil
	}
}
