// Command eventdbd serves an eventdb engine over TCP.
//
// Usage:
//
//	eventdbd [-addr host:port] [-dir path]
//	         [-drop-on-full] [-max-conns n] [-sub-buffer n]
//	         [-read-timeout d] [-write-timeout d]
//	         [-visibility d] [-queue-max-attempts n] [-queue-prefetch n]
//	         [-watch-interval d] [-rule name=condition]...
//	         [-follow leader-addr] [-rack-every n] [-promote-after d]
//	         [-drain-timeout d] [-evict-after-drops n]
//	         [-shed-memory-bytes n]
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
// the filter bindings themselves (rows of the engine's registration
// catalogue, which holds PATTERNs too) all survive a server restart, so
// a bound queue keeps accumulating matches while its consumer is away
// and REPLAY can backfill history from the WAL. -visibility and
// -queue-max-attempts tune redelivery; -queue-prefetch caps
// unacknowledged deliveries per consumer.
//
// A published event is evaluated on the goroutine of the connection
// that sent it, before its reply: PUB's OK carries the event's exact
// delivery count. -drop-on-full trades loss for bounded latency under
// overload on each connection's outbound push queue, whose capacity
// -sub-buffer sets. -max-conns caps concurrent client connections;
// excess connections are refused at the protocol level.
//
// With -follow the process starts as a read-only replication follower:
// it tails the named leader's WAL over the wire (REPLICATE), applies
// every record to its own durable engine, and serves reads
// (SELECT/SUB/MATCH/CQ/REPLAY) while refusing writes with "ERR
// readonly". PROMOTE (or leader silence longer than -promote-after)
// flips it into a leader: replication stops, writes open up, and the
// durable registrations come back. -rack-every tunes how often
// the follower reports its cursor back to the leader. -follow requires
// -dir: replication is WAL shipping, so both ends must be durable.
//
// The self-protection plane: a write or fsync failure fail-stops the
// storage layer into degraded read-only mode (mutating verbs answer
// "ERR degraded" until an operator RECOVER); HEALTH — and the
// gateway's /healthz and /readyz — report role, degraded state and WAL
// lag for load balancers. -shed-memory-bytes arms overload shedding:
// past that heap watermark, publishers that negotiated the lowprio
// HELLO flag get "ERR limit" while normal traffic proceeds.
// -evict-after-drops disconnects a slow consumer after that many
// consecutive dropped pushes (requires -drop-on-full), and
// -drain-timeout bounds how long shutdown waits for each connection's
// outbound queue to flush.
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
// never act on — each names a mechanism that only another flag turns on.
func validate(dir, follow string, dropOnFull bool, evictAfterDrops int) error {
	switch {
	case follow != "" && dir == "":
		return errors.New("-follow requires -dir: replication ships the WAL, so the follower must be durable")
	case evictAfterDrops > 0 && !dropOnFull:
		return errors.New("-evict-after-drops requires -drop-on-full: a blocking push queue never drops, so the count never advances")
	}
	return nil
}

// addRules installs each -rule name=condition on eng; its matches are
// logged.
func addRules(eng *core.Engine, defs []string) error {
	for _, def := range defs {
		name, cond, ok := strings.Cut(def, "=")
		if !ok {
			return fmt.Errorf("bad -rule %q: want name=condition", def)
		}
		err := eng.AddRule(name, cond, 0, func(ev *eventdb.Event, r *eventdb.Rule) {
			log.Printf("rule %s matched %s", r.Name, ev)
		})
		if err != nil {
			return err
		}
		log.Printf("rule %s: %s", name, cond)
	}
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	dir := flag.String("dir", "", "data directory (empty = in-memory)")
	dropOnFull := flag.Bool("drop-on-full", false, "drop a push instead of blocking the publisher when a connection's push queue is full")
	maxConns := flag.Int("max-conns", 0, "maximum concurrent client connections (0 = unlimited)")
	subBuffer := flag.Int("sub-buffer", 256, "per-connection outbound push queue capacity in lines")
	readTimeout := flag.Duration("read-timeout", 0, "time a client may take to finish sending a started command; idle connections are never killed (0 = unbounded)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-flush bound on outbound socket writes, tearing down half-open clients (0 = unbounded)")
	visibility := flag.Duration("visibility", 30*time.Second, "durable queue visibility timeout before unacked deliveries retry")
	queueMaxAttempts := flag.Int("queue-max-attempts", 5, "durable queue delivery attempts before dead-lettering")
	queuePrefetch := flag.Int("queue-prefetch", 256, "unacknowledged deliveries allowed per durable consumer")
	watchInterval := flag.Duration("watch-interval", 0, "poll cadence for WATCHed queries without an explicit interval (0 = the engine's 100ms)")
	follow := flag.String("follow", "", "run as a read-only follower replicating from this leader address (requires -dir)")
	rackEvery := flag.Int("rack-every", 64, "follower: acknowledge the replication cursor every n records")
	promoteAfter := flag.Duration("promote-after", 0, "follower: self-promote to leader after this much leader silence (0 = manual PROMOTE only)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Second, "bound on flushing each connection's outbound queue at shutdown")
	evictAfterDrops := flag.Int("evict-after-drops", 0, "disconnect a consumer after this many consecutive dropped pushes under -drop-on-full (0 = never)")
	shedMemoryBytes := flag.Uint64("shed-memory-bytes", 0, "heap bytes past which low-priority publishers are shed (0 = off)")
	var ruleDefs ruleFlags
	flag.Var(&ruleDefs, "rule", "rule as name=condition (repeatable); matches are logged")
	flag.Parse()
	if err := validate(*dir, *follow, *dropOnFull, *evictAfterDrops); err != nil {
		log.Fatal(err)
	}

	qcfg := queue.Config{VisibilityTimeout: *visibility, MaxAttempts: *queueMaxAttempts}
	eng, err := core.Open(core.Config{Dir: *dir, ShedMemoryBytes: *shedMemoryBytes, WatchInterval: *watchInterval})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	// Durable registrations: TRIGs, QSUB filter bindings, PATTERNs and
	// WATCHes come back from the engine's catalogue, their queues
	// reopened, so a bound queue keeps accumulating matches before its
	// consumer reconnects.
	// SUB and CQ stay out of it: they die with their connections. On a
	// follower this waits for promotion: restoring mutates queue state,
	// and the leader's own staging replicates over the wire anyway.
	restore := func() {
		if err := eng.RestoreRegistrations(qcfg); err != nil {
			log.Fatal(err)
		}
	}
	if *dir != "" && *follow == "" {
		restore()
	}

	if err := addRules(eng, ruleDefs); err != nil {
		log.Fatal(err)
	}

	srvCfg := server.Config{
		MaxConns:        *maxConns,
		SubBuffer:       *subBuffer,
		ReadTimeout:     *readTimeout,
		WriteTimeout:    *writeTimeout,
		Queue:           qcfg,
		QueuePrefetch:   *queuePrefetch,
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
				restore()
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
	log.Println("shutting down (draining in-flight events)")
}
