package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share
// Op; Parent is the index of the enclosing span in the same file, -1
// for a root.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out at exit. A nil
// tracer records nothing, which is how the untraced run stays
// untraced. Recording stops at limit spans (counted in dropped) so the
// file stays readable; the per-layer metrics never depend on it.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	limit   int
	dropped int64
}

func newTracer(limit int) *tracer {
	return &tracer{t0: time.Now(), limit: limit}
}

// begin opens a root span and returns its index, -1 when not recording.
func (t *tracer) begin(name string, op int64) int32 { return t.child(name, op, -1) }

// child opens a span under parent.
func (t *tracer) child(name string, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.limit {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part
// of it its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	covered := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 && sp.End > sp.Start {
			covered[sp.Parent] += sp.End - sp.Start
		}
	}
	self := make(map[string]int64)
	for i, sp := range spans {
		if sp.End > sp.Start {
			self[sp.Name] += sp.End - sp.Start - covered[i]
		}
	}
	return self
}

// write stores the spans and their self-time summary as JSON.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string           `json:"workload"`
		Dropped  int64            `json:"spans_not_recorded"`
		SelfNS   map[string]int64 `json:"self_ns_by_name"`
		Spans    []span           `json:"spans"`
	}{workload, t.dropped, selfTimes(t.spans), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

// The span budgets bound a trace file. Each part of the traced run
// records spans until its own budget is used up, so the closed loop's
// many ops cannot crowd out the open loop or the replays.
const (
	closedSpanLimit = 15000
	openSpanLimit   = 25000
	replaySpanLimit = 20000
)

// perLayerUnits lists every per-layer metric with its unit; a workload
// that does not exercise a layer reports that layer's metrics as 0.
var perLayerUnits = map[string]string{
	"deliver.p99_us":                  "us",
	"client.pub_rtt_p50_us":           "us",
	"client.pubb_rtt_p50_us":          "us",
	"server.syscalls_per_op":          "1/op",
	"server.ctxsw_per_op":             "1/op",
	"server.runq_wait_us_per_op":      "us/op",
	"server.wire_share":               "ratio",
	"server.out_queued_max":           "count",
	"server.dropped":                  "count",
	"server.push_delay_mean_us":       "us",
	"frame.decode_ns_per_msg":         "ns",
	"frame.encode_ns_per_msg":         "ns",
	"event.json_decode_ns":            "ns",
	"event.json_encode_ns":            "ns",
	"core.ingest_ns_per_event":        "ns",
	"core.ingested":                   "count",
	"core.dropped":                    "count",
	"pubsub.match_ns_per_event":       "ns",
	"pubsub.matches_per_event":        "count",
	"pubsub.subscribe_us_per_sub":     "us",
	"cep.feed_ns_per_event":           "ns",
	"cep.instances_max":               "count",
	"cep.matches":                     "count",
	"queue.enqueue_ns_per_msg":        "ns",
	"queue.dequeue_ack_ns_per_msg":    "ns",
	"queue.ready_max":                 "count",
	"queue.inflight_max":              "count",
	"queue.dead":                      "count",
	"wal.append_ns":                   "ns",
	"wal.fsync_ns":                    "ns",
	"wal.bytes_per_msg":               "B",
	"wal.write_amp":                   "ratio",
	"wal.lag_max":                     "count",
	"wal.crash_lost_acked":            "count",
	"wiredb.insert_rtt_p50_us":        "us",
	"wiredb.insert_ns_per_row":        "ns",
	"trigger.capture_p50_us":          "us",
	"query.scan_rtt_p50_us":           "us",
	"query.agg_rtt_p50_us":            "us",
	"query.build_ns":                  "ns",
	"query.run_scan_ns":               "ns",
	"query.run_agg_ns":                "ns",
	"query.segments_pruned_ratio":     "ratio",
	"wiredb.result_encode_ns_per_row": "ns",
	"columnar.seal_ns_per_row":        "ns",
	"columnar.bytes_per_row":          "B",
	"columnar.segments":               "count",
	"gen.late_p99_us":                 "us",
	"trace.overhead_ratio":            "ratio",
}

// outside is what the 10 Hz sampler saw on the running daemon through
// the verbs it already exposes.
type outside struct {
	queuedMax, dropped       float64
	pushDelayMeanUS          float64
	cepInstancesMax, cepHits float64
	readyMax, inflightMax    float64
	dead, walLagMax          float64
}

// sample polls STATS and HEALTH (and QSTATS for durable) once on B.
func (o *outside) sample(s *session, durableRun bool) {
	if raw, err := s.b.StatsJSON(); err == nil {
		var st struct {
			Dropped float64 `json:"dropped"`
			Queued  float64 `json:"queued"`
			Latency struct {
				MeanUS float64 `json:"mean_us"`
			} `json:"latency"`
			Patterns struct {
				Instances float64 `json:"instances"`
				Matches   float64 `json:"matches"`
			} `json:"patterns"`
		}
		if json.Unmarshal(raw, &st) == nil {
			o.queuedMax = max(o.queuedMax, st.Queued)
			o.dropped = st.Dropped
			o.pushDelayMeanUS = st.Latency.MeanUS
			o.cepInstancesMax = max(o.cepInstancesMax, st.Patterns.Instances)
			o.cepHits = st.Patterns.Matches
		}
	}
	if h, err := s.b.Health(); err == nil {
		o.walLagMax = max(o.walLagMax, float64(h.WALLag))
	}
	if durableRun {
		if qs, err := s.b.QueueStats(durableQueue); err == nil {
			o.readyMax = max(o.readyMax, float64(qs.Ready))
			o.inflightMax = max(o.inflightMax, float64(qs.Inflight))
			o.dead = float64(qs.Dead)
		}
	}
}

// runTraced is the traced run: a reference closed-loop phase, then the
// same phases again with spans recorded and the outside counters
// sampled, then the layer replays. It reports the per-layer metrics
// only; end-to-end numbers always come from the untraced run.
func runTraced(o options, name string, scratch string) (res result, err error) {
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(replayError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("layer replay: %w", re.err)
		}
	}()
	ph := phaseLengths(o)
	// One session with phases half as long as an untraced run's sessions
	// have between them: the traced run is shorter.
	ph.closed, ph.open = ph.closed*sessions/2, ph.open*sessions/2
	w := newWorkload(name, o.seed)
	ih := newInputHash()
	w.hashInputs(ih)
	fmt.Printf("== %s (traced) seed=%d input_sha256=%s\n", name, o.seed, ih.sum())
	fmt.Printf("   phases: warm-up %v, untraced closed loop %v, traced closed loop %v, traced open loop %v at %.0f ops/s, then layer replays of %d ops\n",
		ph.warm, ph.closed, ph.closed, ph.open, w.openRate(), replayOps)

	s, next, err := startSession(o, w, scratch, ph.warm)
	if err != nil {
		return result{}, err
	}
	defer func() { s.close() }()
	var ref, closed closedResult
	var open openResult
	if !s.aborted {
		if ref, next, err = s.closedLoop(w, next, ph.closed); err != nil {
			return result{}, err
		}
	}

	tr := newTracer(closedSpanLimit)
	s.tr = tr
	var out outside
	h0, err := s.b.Health()
	if err != nil {
		return result{}, fmt.Errorf("HEALTH: %w", err)
	}
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				out.sample(s, w.durable())
			case <-stopSampler:
				return
			}
		}
	}()
	var phaseErr error
	if !s.aborted {
		closed, next, phaseErr = s.closedLoop(w, next, ph.closed)
	}
	tr.limit = len(tr.spans) + openSpanLimit
	if phaseErr == nil && !s.aborted {
		open, next = s.openLoop(w, next, ph.open)
	}
	close(stopSampler)
	<-samplerDone
	if phaseErr != nil {
		return result{}, phaseErr
	}
	s.tr = nil
	out.sample(s, w.durable())
	h1, err := s.b.Health()
	if err != nil {
		return result{}, fmt.Errorf("HEALTH: %w", err)
	}
	w.finish(s)

	lr := &layerRun{tr: tr, scratch: scratch, metrics: make(map[string]float64, len(perLayerUnits))}
	if _, ok := w.(*dbmix); ok {
		// Segment statistics once, at the end of the phases only: COMPACT
		// also seals, so asking earlier would change what is measured.
		raw, err := adminLine(s.d.addr, "COMPACT "+dbTable+" format=json")
		if err != nil {
			return result{}, err
		}
		var stats []struct {
			Segments   float64 `json:"segments"`
			SealedRows float64 `json:"sealed_rows"`
			Bytes      float64 `json:"bytes"`
		}
		if err := json.Unmarshal([]byte(raw), &stats); err != nil || len(stats) != 1 {
			return result{}, fmt.Errorf("COMPACT format=json: unexpected reply %q", raw)
		}
		lr.set("columnar.segments", stats[0].Segments)
		if stats[0].SealedRows > 0 {
			lr.set("columnar.bytes_per_row", stats[0].Bytes/stats[0].SealedRows)
		}
	}
	if dw, ok := w.(*durable); ok && !s.aborted {
		cr, err := dw.crashCheck(s, o.daemon, filepath.Join(scratch, "eventdbd.log"), next)
		if err != nil {
			return result{}, err
		}
		printCrash(cr)
		lr.set("wal.crash_lost_acked", float64(cr.lost()))
	}
	attempted, failed := s.attempted, s.failed()
	fmt.Printf("   failures on A: %s\n   failures on B: %s\n", s.fa.String(), s.fb.String())
	aborted := s.aborted
	s.close()
	if aborted {
		return result{}, fmt.Errorf("a phase did not drain within %v (failed %d of %d ops)", drainCap, failed, attempted)
	}

	// Live numbers: client round trips, the daemon seen from outside.
	if w.kind() == "pub" {
		lr.set("client.pub_rtt_p50_us", p50(open.rtt))
		lr.set("client.pubb_rtt_p50_us", p50(closed.batchRTT))
	}
	lr.set("server.syscalls_per_op", closed.per(closed.syscalls))
	lr.set("server.ctxsw_per_op", closed.per(closed.ctxsw))
	lr.set("server.runq_wait_us_per_op", closed.per(closed.waitNS)/1e3)
	lr.set("server.out_queued_max", out.queuedMax)
	lr.set("server.dropped", out.dropped)
	lr.set("server.push_delay_mean_us", out.pushDelayMeanUS)
	lr.set("core.ingested", float64(h1.Ingested-h0.Ingested))
	lr.set("core.dropped", float64(h1.Dropped-h0.Dropped))
	lr.set("cep.instances_max", out.cepInstancesMax)
	lr.set("cep.matches", out.cepHits)
	lr.set("queue.ready_max", out.readyMax)
	lr.set("queue.inflight_max", out.inflightMax)
	lr.set("queue.dead", out.dead)
	lr.set("wal.lag_max", out.walLagMax)
	if w.durable() && closed.ops > 0 {
		perMsg := float64(closed.walBytes) / float64(closed.ops)
		lr.set("wal.bytes_per_msg", perMsg)
		payload, _ := newTickGen(o.seed).event(0).EncodedJSON()
		lr.set("wal.write_amp", perMsg/float64(len(payload)))
	}
	sum, err := summarizeOpen(open)
	if err != nil {
		return result{}, err
	}
	lr.set("deliver.p99_us", sum.p99)
	lr.set("gen.late_p99_us", sum.lateP99)
	if ref.ops > 0 {
		lr.set("trace.overhead_ratio", closed.throughput()/ref.throughput())
	}

	tr.limit = len(tr.spans) + replaySpanLimit
	w.layers(lr)
	if ref.cpuNS > 0 {
		lr.set("server.wire_share", 1-lr.metrics["core.ingest_ns_per_event"]/ref.per(ref.cpuNS))
	}
	path, err := tr.write(o.out, name)
	if err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}

	res = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(perLayerUnits))}
	names := make([]string, 0, len(perLayerUnits))
	for n := range perLayerUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.Metrics[n] = metric{lr.metrics[n], perLayerUnits[n]}
		fmt.Printf("   %-34s %14.3f %s\n", n, lr.metrics[n], perLayerUnits[n])
	}
	fmt.Printf("   untraced reference: %.0f ops/s, %.2f us/op of daemon CPU; traced: %.0f ops/s; %d spans in %s\n",
		ref.throughput(), ref.per(ref.cpuNS)/1e3, closed.throughput(), len(tr.spans), path)
	return res, nil
}
