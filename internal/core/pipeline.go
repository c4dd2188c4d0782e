// Sharded, batched, asynchronous ingestion.
//
// The paper's scalability story (§2.2, §3) rests on decoupling event
// arrival from evaluation: staged queues absorb bursts while indexed
// rule sets and subscriptions evaluate behind them. The pipeline is
// that idea applied to the engine's own front door. Events are
// hash-partitioned by a shard key (event type by default) across N
// worker shards; each shard drains a bounded buffer and runs the
// engine's one evaluation pass (Engine.evaluate), so throughput scales
// with cores while events that share a key keep their order.
//
//	Ingest/IngestBatch
//	        │ fnv32a(shardKey) % N
//	   ┌────┴─────┬──────────┐
//	   ▼          ▼          ▼
//	[shard 0]  [shard 1] … [shard N-1]   bounded chans (block|drop)
//	   │          │          │
//	   ▼          ▼          ▼
//	evaluate per shard, micro-batched
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eventdb/internal/event"
	"eventdb/internal/metrics"
)

// Backpressure selects what publishing into a full shard buffer does.
type Backpressure int

const (
	// BlockOnFull (the default) blocks the publisher until the shard
	// drains — lossless, propagates pressure upstream.
	BlockOnFull Backpressure = iota
	// DropOnFull drops the event and counts it in the shard's drops
	// counter — bounded latency, lossy under sustained overload.
	DropOnFull
)

// String names the policy for logs and flags.
func (b Backpressure) String() string {
	if b == DropOnFull {
		return "drop"
	}
	return "block"
}

// ErrClosed is returned by ingestion after Close.
var ErrClosed = errors.New("core: engine closed")

const (
	defaultShardBuffer = 1024
	// shardBatch caps a worker's opportunistic micro-batch: after a
	// blocking receive it drains up to this many more queued events
	// before evaluating, amortizing scratch and metric updates.
	shardBatch = 64
)

// pipeline fans ingested events out to shard workers.
type pipeline struct {
	eng    *Engine
	keyFn  func(*event.Event) string
	policy Backpressure
	shards []*shard

	mu     sync.RWMutex // closed excludes enqueue
	closed bool
	wg     sync.WaitGroup
}

// shard is one worker: a bounded buffer, its drain goroutine, and its
// operational metrics.
type shard struct {
	ch       chan *event.Event
	accepted atomic.Uint64 // events taken into ch, ever

	depth     *metrics.Gauge   // current buffer occupancy
	drops     *metrics.Counter // events lost to DropOnFull
	processed *metrics.Counter // events fully evaluated, ever
}

func newPipeline(e *Engine, cfg Config) *pipeline {
	buf := cfg.ShardBuffer
	if buf <= 0 {
		buf = defaultShardBuffer
	}
	keyFn := cfg.ShardKey
	if keyFn == nil {
		keyFn = func(ev *event.Event) string { return ev.Type }
	}
	p := &pipeline{eng: e, keyFn: keyFn, policy: cfg.Backpressure}
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{
			ch:        make(chan *event.Event, buf),
			depth:     e.Metrics.Gauge(fmt.Sprintf("pipeline.shard%d.depth", i)),
			drops:     e.Metrics.Counter(fmt.Sprintf("pipeline.shard%d.drops", i)),
			processed: e.Metrics.Counter(fmt.Sprintf("pipeline.shard%d.processed", i)),
		}
		p.shards = append(p.shards, s)
		p.wg.Add(1)
		go p.run(s)
	}
	return p
}

// shardFor picks the worker for an event: FNV-1a over the shard key,
// so equal keys always land on the same (single-goroutine) shard and
// therefore process in arrival order.
func (p *pipeline) shardFor(ev *event.Event) *shard {
	key := p.keyFn(ev)
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return p.shards[h%uint32(len(p.shards))]
}

// offer is a non-blocking send into the shard's buffer; it reports
// whether there was room.
func (s *shard) offer(ev *event.Event) bool {
	select {
	case s.ch <- ev:
		s.accepted.Add(1)
		s.depth.Set(int64(len(s.ch)))
		return true
	default:
		return false
	}
}

// tryEnqueue is a non-blocking enqueue: it reports whether the event
// was accepted, never waiting on a full buffer regardless of policy
// (false too for a nil event, or once the pipeline is closed). The
// capture paths use it to stay deadlock-free when re-entered from a
// shard goroutine.
func (p *pipeline) tryEnqueue(ev *event.Event) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return ev != nil && !p.closed && p.shardFor(ev).offer(ev)
}

// enqueue hands one event to its shard, applying the backpressure
// policy. A nil error means the event was accepted (or, under
// DropOnFull, counted as dropped).
func (p *pipeline) enqueue(ev *event.Event) error {
	if ev == nil {
		return errNilEvent
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	s := p.shardFor(ev)
	if p.policy == DropOnFull {
		if !s.offer(ev) {
			s.drops.Inc()
			p.eng.Metrics.Counter("pipeline.drops").Inc()
		}
		return nil
	}
	// BlockOnFull: a blocked sender holds only the read lock, and the
	// shard keeps draining until its channel is closed — which close()
	// can only do after every sender releases that lock — so shutdown
	// cannot deadlock against backpressure.
	s.accepted.Add(1)
	s.ch <- ev
	s.depth.Set(int64(len(s.ch)))
	return nil
}

// run is a shard's drain loop: blocking receive, opportunistic drain
// into a micro-batch, then one evaluation pass. The loop exits when the
// channel is closed and fully drained, so close() doubles as a lossless
// flush.
func (p *pipeline) run(s *shard) {
	defer p.wg.Done()
	batch := make([]*event.Event, 0, shardBatch)
	for ev := range s.ch {
		batch = drainInto(s.ch, append(batch[:0], ev))
		s.depth.Set(int64(len(s.ch)))
		p.eng.evaluateBatch(batch, false, "pipeline.batch.latency")
		// Counted last: flush reads accepted-processed as the backlog, so
		// by then everything the batch did — its counters, and whatever
		// it cascaded into other shards — is already visible.
		s.processed.Add(uint64(len(batch)))
	}
}

// drainInto appends immediately available events from ch to batch —
// up to its capacity, never blocking — and returns the grown batch.
// Shard workers and the journal tail share it to form micro-batches.
func drainInto(ch <-chan *event.Event, batch []*event.Event) []*event.Event {
	for len(batch) < cap(batch) {
		select {
		case ev, ok := <-ch:
			if !ok {
				return batch
			}
			batch = append(batch, ev)
		default:
			return batch
		}
	}
	return batch
}

// flush blocks until the pipeline is idle: every accepted event has
// been evaluated, and so has everything those evaluations cascaded back
// in — a pattern's composite, a captured row change — wherever it
// landed. A pass waits out each shard's backlog in turn; a cascade can
// land in a shard the pass has already left, so a pass only counts if
// no shard accepted anything while it ran (the counters only grow, so
// equal sums mean that, and that every backlog seen empty stayed so).
// Producers that keep publishing keep flush waiting. Polling backs off
// exponentially so a deep backlog doesn't burn a core.
func (p *pipeline) flush() {
	for {
		before := p.accepted()
		for _, s := range p.shards {
			wait := 50 * time.Microsecond
			for int64(s.accepted.Load()-s.processed.Value()) > 0 {
				time.Sleep(wait)
				if wait < 5*time.Millisecond {
					wait *= 2
				}
			}
		}
		if p.accepted() == before {
			return
		}
	}
}

func (p *pipeline) accepted() (n uint64) {
	for _, s := range p.shards {
		n += s.accepted.Load()
	}
	return n
}

// close stops intake, drains every shard's in-flight events, and waits
// for the workers to exit. Idempotent.
func (p *pipeline) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, s := range p.shards {
		close(s.ch)
	}
	p.mu.Unlock()
	p.wg.Wait()
	for _, s := range p.shards {
		s.depth.Set(0)
	}
}

// Flush waits until the async pipeline is idle: all events accepted so
// far have been fully evaluated, pattern matching included, and so
// have the events they derived. A no-op for synchronous engines.
func (e *Engine) Flush() {
	if e.pipeline != nil {
		e.pipeline.flush()
	}
}

// Shards reports the pipeline width (0 when the engine is synchronous).
func (e *Engine) Shards() int {
	if e.pipeline == nil {
		return 0
	}
	return len(e.pipeline.shards)
}

// QueueDepths returns each shard's current buffer occupancy, for
// operational visibility; nil when the engine is synchronous.
func (e *Engine) QueueDepths() []int {
	if e.pipeline == nil {
		return nil
	}
	out := make([]int, len(e.pipeline.shards))
	for i, s := range e.pipeline.shards {
		out[i] = len(s.ch)
	}
	return out
}

// Dropped reports the total number of events dropped by DropOnFull
// backpressure across all shards.
func (e *Engine) Dropped() uint64 {
	return e.Metrics.Counter("pipeline.drops").Value()
}
