package server

import (
	"fmt"
	"runtime/metrics"
	"strconv"
	"strings"

	"eventdb/internal/core"
)

// Handlers for the health plane: operator and load-balancer visibility
// (HEALTH) and the degraded-mode exit (RECOVER). Its third verb,
// idempotent publish (PUBT) for retrying clients, is in publish.go.
//
//	HEALTH [format=json] → one-line operational snapshot (role, degraded
//	                       flag, overload state, WAL positions, queue
//	                       depths, slow-consumer counts)
//	RECOVER              → "OK"; re-verifies the WAL tail and resumes
//	                       mutations after a fail-stop. No-op when healthy.

// healthSnapshot layers the server-level view (role, connection and
// slow-consumer counts, isolation counters) over the engine's health
// struct. One struct so the text and JSON renderings cannot drift.
type healthSnapshot struct {
	core.Health
	role    string
	conns   int
	slow    int // live connections that have dropped pushes
	evicted uint64
	shed    uint64
	panics  uint64
}

func (s *Server) healthSnapshot() healthSnapshot {
	h := healthSnapshot{Health: s.eng.Health(), role: "leader"}
	if s.eng.ReadOnly() {
		h.role = "follower"
	}
	s.mu.Lock()
	h.conns = len(s.conns)
	for c := range s.conns {
		if c.dropped.Load() > 0 {
			h.slow++
		}
	}
	s.mu.Unlock()
	h.evicted = s.eng.Metrics.Counter("server.evicted").Value()
	h.shed = s.eng.Metrics.Counter("server.shed").Value()
	h.panics = s.eng.Metrics.Counter("server.panics").Value()
	return h
}

// walLag is how many logged LSNs are not yet covered by LastApplied —
// nonzero only in the torn window a fail-stop preserves for RECOVER.
func (h *healthSnapshot) walLag() uint64 {
	if h.NextLSN == 0 || h.NextLSN-1 <= h.LastApplied {
		return 0
	}
	return h.NextLSN - 1 - h.LastApplied
}

func b01(v bool) string {
	if v {
		return "1"
	}
	return "0"
}

// handleHealth reports the node's operational state. The text field
// order — role, degraded, overloaded, durable, conns, slow, evicted,
// shed, panics, last_applied, next_lsn, wal_lag, queued, qcap — is part
// of the wire contract (PROTOCOL.md §9); format=json returns the same
// fields plus the human-readable degraded cause and overload reason,
// the ingest counters, the columnar store's totals and the Go runtime's
// allocation, collector and heap figures.
func handleHealth(c *conn, req *request) bool {
	format, ok := statsFormat(c, req.tail)
	if !ok {
		return true
	}
	h := c.srv.healthSnapshot()
	depth := 0
	for _, d := range h.QueueDepths {
		depth += d
	}
	if format == "json" {
		depths := make([]string, len(h.QueueDepths))
		for i, d := range h.QueueDepths {
			depths[i] = strconv.Itoa(d)
		}
		c.reply(fmt.Sprintf(`OK {"role":%q,"degraded":%v,"degraded_cause":%q,"overloaded":%v,"overload_reason":%q,`+
			`"durable":%v,"conns":%d,"slow_consumers":%d,"evicted":%d,"shed":%d,"panics":%d,`+
			`"last_applied":%d,"next_lsn":%d,"wal_lag":%d,"queue_depths":[%s],"queue_cap":%d,"ingested":%d,"dropped":%d,`+
			`"qsub":%s,"columnar":{"segments":%d,"sealed_rows":%d,"tail_rows":%d,"resident_segments":%d},`+
			`"runtime":%s}`,
			h.role, h.Degraded, h.DegradedCause, h.Overloaded, h.OverloadReason,
			h.Durable, h.conns, h.slow, h.evicted, h.shed, h.panics,
			h.LastApplied, h.NextLSN, h.walLag(), strings.Join(depths, ","), h.QueueCap, h.Ingested, h.Dropped,
			qsubJSON(c.srv.eng.Metrics), h.Columnar.Segments, h.Columnar.SealedRows, h.Columnar.TailRows, h.Columnar.ResidentSegments,
			runtimeJSON()))
		return true
	}
	c.reply(fmt.Sprintf("OK role=%s degraded=%s overloaded=%s durable=%s conns=%d slow=%d evicted=%d shed=%d panics=%d last_applied=%d next_lsn=%d wal_lag=%d queued=%d qcap=%d",
		h.role, b01(h.Degraded), b01(h.Overloaded), b01(h.Durable), h.conns, h.slow,
		h.evicted, h.shed, h.panics, h.LastApplied, h.NextLSN, h.walLag(), depth, h.QueueCap))
	return true
}

// runtimeJSON renders HEALTH's "runtime" object from one
// runtime/metrics reading, which unlike runtime.ReadMemStats does not
// stop the world. Allocation and collector work are cumulative; the
// heap figures are as the last collection left them.
func runtimeJSON() string {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/goal:bytes"}, {Name: "/sched/goroutines:goroutines"}}
	metrics.Read(s)
	u := func(i int) uint64 { // 0 for a metric this Go release lacks
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	gcCPU := 0.0
	if s[3].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[3].Value.Float64()
	}
	return fmt.Sprintf(`{"alloc_bytes":%d,"alloc_objects":%d,"gc_cycles":%d,"gc_cpu_seconds":%g,"heap_live_bytes":%d,"heap_goal_bytes":%d,"goroutines":%d}`,
		u(0), u(1), u(2), gcCPU, u(4), u(5), u(6))
}

// handleRecover exits degraded mode: the engine re-verifies the WAL
// tail (truncating bytes never acknowledged), fsyncs to prove the
// device writes again, and resumes mutations. While the device still
// refuses writes the node stays degraded and the error says why.
// Healthy nodes answer OK without touching the log, so operators can
// fire RECOVER blind.
func handleRecover(c *conn, _ *request) bool {
	if err := c.srv.eng.Recover(); err != nil {
		c.errf(codeDegraded, "recover failed, still degraded: %v", err)
		return true
	}
	c.reply("OK")
	return true
}
