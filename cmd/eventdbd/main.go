// Command eventdbd serves an eventdb engine over TCP.
//
// Usage:
//
//	eventdbd [-addr host:port] [-dir path] [-shards n] [-shard-buffer n]
//	         [-drop-on-full] [-max-conns n] [-sub-buffer n]
//	         [-read-timeout d] [-write-timeout d] [-park-after d]
//	         [-visibility d] [-queue-max-attempts n] [-queue-prefetch n]
//	         [-watch-interval d] [-rule name=condition]...
//	         [-follow leader-addr] [-rack-every n] [-promote-after d]
//	         [-drain-timeout d] [-evict-after-drops n]
//	         [-shed-high-water f] [-shed-memory-bytes n]
//
// Foreign systems speak the streaming line protocol documented in
// internal/server: they publish JSON events (PUB, and PUBB for
// batches), and they register subscriptions (SUB) and continuous
// queries (CQ) whose matches are pushed back as EVT lines — rules,
// subscriptions and windows all evaluate inside the database process
// (the paper's "internal evaluation" path).
//
// The database plane exposes the capture side: TABLE creates schema,
// INSERT/UPDATE/DELETE mutate rows so triggers fire (TRIG registers
// them, with WHEN guards over old./new. images and optional BEFORE
// veto), SELECT reads back through the query planner, and WATCH
// schedules repeatedly-evaluated queries whose result-set diffs are
// ingested as events. -watch-interval sets the default poll cadence
// for WATCHed queries that don't pick their own.
//
// Durable subscriptions (QSUB/CONSUME/ACK/NACK/QSTATS/REPLAY) stage
// matches in named queues backed by database tables. With -dir set
// they are fully durable: queue contents, in-flight deliveries, and
// the filter bindings themselves (persisted in the wire_subs table)
// all survive a server restart, so a bound queue keeps accumulating
// matches while its consumer is away and REPLAY can backfill history
// from the WAL. -visibility and -queue-max-attempts tune redelivery;
// -queue-prefetch caps unacknowledged deliveries per consumer.
//
// With -shards 1, published events enter the asynchronous ingest
// pipeline instead of evaluating on the connection handler's
// goroutine: PUB returns as soon as the event is accepted (its reply
// reports 0 deliveries, since evaluation happens later on the shard).
// A wider pipeline is refused at start-up: its shard key is the event
// type, so a SUB/QSUB filter or PATTERN that spans event types would
// lose its delivery order (PROTOCOL.md §2.2). -shard-buffer sizes the
// shard's bounded queue and -drop-on-full trades loss for bounded
// latency under overload — for both the ingest shard and each
// connection's outbound push queue, whose capacity -sub-buffer sets.
// -max-conns caps concurrent client
// connections; excess connections are refused at the protocol level.
//
// With -follow the process starts as a read-only replication follower:
// it tails the named leader's WAL over the wire (REPLICATE), applies
// every record to its own durable engine, and serves reads
// (SELECT/SUB/MATCH/CQ/REPLAY) while refusing writes with "ERR
// readonly". PROMOTE (or leader silence longer than -promote-after)
// flips it into a leader: replication stops, writes open up, and
// durable queue subscriptions re-attach. -rack-every tunes how often
// the follower reports its cursor back to the leader. -follow requires
// -dir: replication is WAL shipping, so both ends must be durable.
//
// The self-protection plane: a write or fsync failure fail-stops the
// storage layer into degraded read-only mode (mutating verbs answer
// "ERR degraded" until an operator RECOVER); HEALTH — and the
// gateway's /healthz and /readyz — report role, degraded state, WAL
// lag, and queue depths for load balancers. -shed-high-water (ingest
// shard queue fill; requires -shards) and -shed-memory-bytes arm
// overload shedding: past either watermark,
// publishers that negotiated the lowprio HELLO flag get "ERR limit"
// while normal traffic proceeds. -evict-after-drops disconnects a
// slow consumer after that many consecutive dropped pushes (requires
// -drop-on-full), and -drain-timeout bounds how long shutdown waits
// for each connection's outbound queue to flush.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"eventdb"
	"eventdb/internal/core"
	"eventdb/internal/queue"
	"eventdb/internal/repl"
	"eventdb/internal/server"
)

type ruleFlags []string

func (r *ruleFlags) String() string { return strings.Join(*r, ",") }

// Set implements flag.Value.
func (r *ruleFlags) Set(v string) error {
	*r = append(*r, v)
	return nil
}

// validate refuses flag combinations the daemon would accept and then
// never act on — each names a mechanism that only another flag turns on
// — and a width that would break the delivery order it documents.
func validate(dir, follow string, shards int, dropOnFull bool, evictAfterDrops int, shedHighWater float64) error {
	switch {
	case shards > 1:
		return fmt.Errorf("-shards %d is refused: the shard key is the event type, so a SUB/QSUB filter or PATTERN spanning types would see deliveries missing, reordered or duplicated (PROTOCOL.md, \"Delivery order\"); -shards 1 keeps every order", shards)
	case follow != "" && dir == "":
		return errors.New("-follow requires -dir: replication ships the WAL, so the follower must be durable")
	case shedHighWater > 0 && shards == 0:
		return errors.New("-shed-high-water requires -shards: the watermark is on ingest shard queue fill, and a synchronous engine has no shard queues (-shed-memory-bytes works at any width)")
	case evictAfterDrops > 0 && !dropOnFull:
		return errors.New("-evict-after-drops requires -drop-on-full: a blocking push queue never drops, so the count never advances")
	}
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	dir := flag.String("dir", "", "data directory (empty = in-memory)")
	shards := flag.Int("shards", 0, "async ingest pipeline: 0 = synchronous, 1 = evaluation behind the reader; wider is refused, since the shard key is the event type and a SUB/QSUB filter or PATTERN spanning types would lose per-subscription order")
	shardBuffer := flag.Int("shard-buffer", 1024, "per-shard bounded queue capacity")
	dropOnFull := flag.Bool("drop-on-full", false, "drop instead of blocking when a shard buffer or connection push queue is full")
	maxConns := flag.Int("max-conns", 0, "maximum concurrent client connections (0 = unlimited)")
	subBuffer := flag.Int("sub-buffer", 256, "per-connection outbound push queue capacity in lines")
	readTimeout := flag.Duration("read-timeout", 0, "time a client may take to finish sending a started command; idle connections are never killed (0 = unbounded)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-flush bound on outbound socket writes, tearing down half-open clients (0 = unbounded)")
	parkAfter := flag.Duration("park-after", 100*time.Millisecond, "idle threshold before a park-negotiated connection releases its reader goroutine to the shared poller")
	visibility := flag.Duration("visibility", 30*time.Second, "durable queue visibility timeout before unacked deliveries retry")
	queueMaxAttempts := flag.Int("queue-max-attempts", 5, "durable queue delivery attempts before dead-lettering")
	queuePrefetch := flag.Int("queue-prefetch", 256, "unacknowledged deliveries allowed per durable consumer")
	watchInterval := flag.Duration("watch-interval", 100*time.Millisecond, "default poll cadence for WATCHed queries without an explicit interval")
	follow := flag.String("follow", "", "run as a read-only follower replicating from this leader address (requires -dir)")
	rackEvery := flag.Int("rack-every", 64, "follower: acknowledge the replication cursor every n records")
	promoteAfter := flag.Duration("promote-after", 0, "follower: self-promote to leader after this much leader silence (0 = manual PROMOTE only)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Second, "bound on flushing each connection's outbound queue at shutdown")
	evictAfterDrops := flag.Int("evict-after-drops", 0, "disconnect a consumer after this many consecutive dropped pushes under -drop-on-full (0 = never)")
	shedHighWater := flag.Float64("shed-high-water", 0, "shard queue fill fraction (0..1] past which low-priority publishers are shed (0 = off)")
	shedMemoryBytes := flag.Uint64("shed-memory-bytes", 0, "heap bytes past which low-priority publishers are shed (0 = off)")
	var ruleDefs ruleFlags
	flag.Var(&ruleDefs, "rule", "rule as name=condition (repeatable); matches are logged")
	flag.Parse()
	if err := validate(*dir, *follow, *shards, *dropOnFull, *evictAfterDrops, *shedHighWater); err != nil {
		log.Fatal(err)
	}

	cfg := core.Config{
		Dir: *dir, Shards: *shards, ShardBuffer: *shardBuffer,
		ShedHighWater: *shedHighWater, ShedMemoryBytes: *shedMemoryBytes,
	}
	if *dropOnFull {
		cfg.Backpressure = core.DropOnFull
	}
	qcfg := queue.Config{VisibilityTimeout: *visibility, MaxAttempts: *queueMaxAttempts}
	eng, err := core.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	// Durable wire subscriptions: QSUB filter bindings persist in the
	// wire_subs table and rebind their queues on restart, so a bound
	// queue keeps accumulating matches before its consumer reconnects.
	// Ephemeral SUB/CQ registrations stay out of the store — their
	// handlers die with their connections. On a follower this attach is
	// deferred to promotion: attaching mutates queue state, and the
	// leader's own staging replicates over the wire anyway.
	attachDurableSubs := func() {
		eng.Broker.PersistOnlyQueueSubs(true)
		if err := eng.Broker.AttachStore(eng.DB, "wire_subs", eng.Queues, qcfg, nil); err != nil {
			log.Fatal(err)
		}
		// PATTERN registrations persist alongside, in wire_patterns.
		if err := eng.AttachPatternStore("wire_patterns"); err != nil {
			log.Fatal(err)
		}
	}
	if *dir != "" && *follow == "" {
		attachDurableSubs()
	}
	if *shards > 0 {
		log.Printf("ingest pipeline: %d shards, buffer %d, policy %s",
			eng.Shards(), *shardBuffer, cfg.Backpressure)
	}

	for _, def := range ruleDefs {
		name, cond, ok := strings.Cut(def, "=")
		if !ok {
			log.Fatalf("bad -rule %q: want name=condition", def)
		}
		err := eng.AddRule(name, cond, 0, func(ev *eventdb.Event, r *eventdb.Rule) {
			log.Printf("rule %s matched %s", r.Name, ev)
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("rule %s: %s", name, cond)
	}

	srvCfg := server.Config{
		MaxConns:        *maxConns,
		SubBuffer:       *subBuffer,
		ReadTimeout:     *readTimeout,
		WriteTimeout:    *writeTimeout,
		ParkAfter:       *parkAfter,
		Queue:           qcfg,
		QueuePrefetch:   *queuePrefetch,
		WatchInterval:   *watchInterval,
		DrainTimeout:    *drainTimeout,
		EvictAfterDrops: *evictAfterDrops,
	}
	if *dropOnFull {
		srvCfg.Overflow = server.DropOnFull
	}
	var follower *repl.Follower
	if *follow != "" {
		follower, err = repl.Start(repl.Config{
			Addr:             *follow,
			Engine:           eng,
			RackEvery:        *rackEvery,
			AutoPromoteAfter: *promoteAfter,
			OnPromote: func() {
				log.Printf("promoted to leader (was following %s)", *follow)
				attachDurableSubs()
			},
			Logf: log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer follower.Close()
		srvCfg.Promote = follower.Promote
		log.Printf("following %s (read-only; PROMOTE or -promote-after to take over)", *follow)
	}
	srv, err := server.StartConfig(eng, *addr, srvCfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("eventdbd listening on %s (dir=%q, max-conns=%d, sub-buffer=%d, push-overflow=%s)\n",
		srv.Addr(), *dir, *maxConns, *subBuffer, srvCfg.Overflow)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if d := eng.Dropped(); d > 0 {
		log.Printf("dropped %d events under backpressure", d)
	}
	log.Println("shutting down (draining in-flight events)")
}
