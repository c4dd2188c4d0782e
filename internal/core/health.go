package core

import (
	"fmt"
	"runtime"
	"time"
)

// Degraded reports whether the storage layer fail-stopped after a WAL
// write or fsync failure, and the failure that caused it. While
// degraded, every mutation path returns storage.ErrDegraded; reads,
// subscriptions, and queries keep serving.
func (e *Engine) Degraded() (bool, string) { return e.DB.Degraded() }

// Recover exits degraded mode: the WAL tail is re-verified (truncating
// anything never acknowledged), fsynced, and mutations resume. If the
// device still refuses writes the engine stays degraded and the error
// is returned. On a healthy engine this is a no-op.
func (e *Engine) Recover() error { return e.DB.Recover() }

// memProbeInterval bounds how often Overloaded pays for a real
// runtime.ReadMemStats; between probes the cached value is used.
const memProbeInterval = 250 * time.Millisecond

// Overloaded reports whether an armed ingest watermark is exceeded —
// the signal the server uses to shed low-priority publishers before
// blocking backpressure turns into collapse. Always false when no
// watermark is configured.
func (e *Engine) Overloaded() (bool, string) {
	if e.shedHighWater > 0 && e.pipeline != nil {
		depth, capacity := 0, 0
		for _, s := range e.pipeline.shards {
			depth += len(s.ch)
			capacity += cap(s.ch)
		}
		if capacity > 0 && float64(depth) > e.shedHighWater*float64(capacity) {
			return true, fmt.Sprintf("shard queues %d/%d over high water %.2f", depth, capacity, e.shedHighWater)
		}
	}
	if e.shedMemBytes > 0 {
		if heap := e.heapInUse(); heap > e.shedMemBytes {
			return true, fmt.Sprintf("heap %d bytes over limit %d", heap, e.shedMemBytes)
		}
	}
	return false, ""
}

// heapInUse returns the Go heap-in-use, probing the runtime at most
// every memProbeInterval so overload checks stay cheap per event.
func (e *Engine) heapInUse() uint64 {
	now := time.Now().UnixNano()
	last := e.memCheckedAt.Load()
	if now-last < int64(memProbeInterval) {
		return e.memHeapInUse.Load()
	}
	if !e.memCheckedAt.CompareAndSwap(last, now) {
		return e.memHeapInUse.Load() // another goroutine is probing
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.memHeapInUse.Store(ms.HeapInuse)
	return ms.HeapInuse
}

// Health is a point-in-time operational snapshot, the substrate for
// the HEALTH wire verb and the gateway's /healthz and /readyz.
type Health struct {
	Degraded       bool
	DegradedCause  string
	Overloaded     bool
	OverloadReason string
	ReadOnly       bool
	Durable        bool
	// LastApplied is the highest WAL LSN logged and applied; NextLSN is
	// the next LSN the log will assign. Both 0 when volatile.
	LastApplied uint64
	NextLSN     uint64
	// QueueDepths is per-shard ingest buffer occupancy (nil when the
	// engine is synchronous); QueueCap is the per-shard capacity.
	QueueDepths []int
	QueueCap    int
	Ingested    uint64
	Dropped     uint64
	// Columnar sums the columnar history over all tables. TailRows is
	// the sealer's backlog: rows committed but not yet in a segment;
	// ResidentSegments are the sealed segments memory still holds (the
	// ones with a live row), of the Segments ever sealed.
	Columnar ColumnarHealth
}

// ColumnarHealth is the columnar store's share of a Health snapshot.
type ColumnarHealth struct {
	Segments         int
	SealedRows       int
	TailRows         int
	ResidentSegments int
}

// Health assembles the engine-level health snapshot. Server-level
// fields (role, connections, slow consumers) are layered on by the
// wire handler.
func (e *Engine) Health() Health {
	h := Health{
		ReadOnly:    e.ReadOnly(),
		Durable:     e.DB.Durable(),
		QueueDepths: e.QueueDepths(),
		Ingested:    e.Ingested(),
		Dropped:     e.Dropped(),
	}
	h.Degraded, h.DegradedCause = e.Degraded()
	h.Overloaded, h.OverloadReason = e.Overloaded()
	if e.pipeline != nil && len(e.pipeline.shards) > 0 {
		h.QueueCap = cap(e.pipeline.shards[0].ch)
	}
	if w := e.DB.WAL(); w != nil {
		h.LastApplied = e.DB.LastApplied()
		h.NextLSN = w.NextLSN()
	}
	for _, ts := range e.SegmentStats() {
		h.Columnar.Segments += ts.Segments
		h.Columnar.SealedRows += ts.SealedRows
		h.Columnar.TailRows += ts.PendingRows
		h.Columnar.ResidentSegments += ts.ResidentSegments
	}
	return h
}
