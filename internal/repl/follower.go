package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eventdb/internal/core"
	"eventdb/internal/queue"
	"eventdb/internal/storage"
	"eventdb/internal/trigger"
	"eventdb/internal/wal"
)

// Config configures a Follower.
type Config struct {
	// Addr is the leader's wire address.
	Addr string
	// Engine is the local engine. It must be durable (WAL-backed): the
	// follower mirrors the leader's log into it.
	Engine *core.Engine
	// RackEvery is the cursor-ack cadence in records. Defaults to 64.
	// A time-based ack also fires every ~500ms so an idle stream still
	// reports progress.
	RackEvery int
	// Dial overrides the leader connection (fault-injection hook).
	// Nil means a plain TCP dial with a 5s timeout.
	Dial func(addr string) (net.Conn, error)
	// ReconnectMin/Max bound the exponential backoff between stream
	// attempts. Defaults: 50ms and 2s.
	ReconnectMin, ReconnectMax time.Duration
	// AutoPromoteAfter promotes the follower once the leader has been
	// unreachable for this long. 0 disables auto-promotion.
	AutoPromoteAfter time.Duration
	// OnPromote runs exactly once during promotion, after the engine's
	// read-only gate is lifted — the place to restore durable
	// registrations (core.Engine.RestoreRegistrations).
	OnPromote func()
	// Logf receives diagnostic messages. Nil discards them.
	Logf func(format string, a ...any)
}

// Follower tails a leader's WAL and applies it locally. The local
// engine is read-only from Start until Promote.
type Follower struct {
	cfg Config

	cursor      atomic.Uint64 // next LSN expected from the leader
	applied     atomic.Uint64 // records applied this process
	lastContact atomic.Int64  // UnixNano of last leader activity

	mu   sync.Mutex // guards conn and the stop-close
	conn net.Conn
	stop chan struct{}
	done chan struct{}

	promoteMu sync.Mutex
	promoted  bool
}

const rackInterval = 500 * time.Millisecond

// Start marks the engine read-only, positions the cursor after the
// last locally-applied record, and begins streaming from the leader
// in a background goroutine. Records applied before a restart are
// never re-requested: the cursor starts at the local WAL's next LSN.
func Start(cfg Config) (*Follower, error) {
	if cfg.Engine == nil {
		return nil, errors.New("repl: Config.Engine is required")
	}
	if !cfg.Engine.DB.Durable() {
		return nil, errors.New("repl: follower engine must be durable (set Dir)")
	}
	if cfg.Addr == "" {
		return nil, errors.New("repl: Config.Addr is required")
	}
	if cfg.RackEvery <= 0 {
		cfg.RackEvery = 64
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 50 * time.Millisecond
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 2 * time.Second
	}
	f := &Follower{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	cfg.Engine.SetReadOnly(true)
	f.cursor.Store(cfg.Engine.DB.WAL().NextLSN())
	f.lastContact.Store(time.Now().UnixNano())
	go f.run()
	return f, nil
}

// Cursor returns the next LSN the follower expects from the leader;
// every record below it is applied and locally durable.
func (f *Follower) Cursor() uint64 { return f.cursor.Load() }

// WaitCursor polls until the cursor reaches target or the timeout
// expires, reporting success. A test convenience.
func (f *Follower) WaitCursor(target uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for f.cursor.Load() < target {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

func (f *Follower) logf(format string, a ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, a...)
	}
}

// run is the reconnect loop: stream until the connection drops, back
// off, retry — and auto-promote if the leader stays gone too long.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.cfg.ReconnectMin
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		err := f.stream()
		select {
		case <-f.stop:
			return
		default:
		}
		if err != nil {
			f.logf("repl: stream from %s: %v", f.cfg.Addr, err)
		}
		if f.cfg.AutoPromoteAfter > 0 {
			silent := time.Since(time.Unix(0, f.lastContact.Load()))
			if silent >= f.cfg.AutoPromoteAfter {
				f.logf("repl: leader unreachable for %v, promoting", silent.Round(time.Millisecond))
				f.finishPromote()
				return
			}
		}
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > f.cfg.ReconnectMax {
			backoff = f.cfg.ReconnectMax
		}
	}
}

// stream runs one leader connection: REPLICATE from the cursor, apply
// every REPL line, ack on a record cadence plus a wall-clock ticker.
func (f *Follower) stream() error {
	dial := f.cfg.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	conn, err := dial(f.cfg.Addr)
	if err != nil {
		return err
	}
	f.mu.Lock()
	select {
	case <-f.stop:
		f.mu.Unlock()
		conn.Close()
		return nil
	default:
	}
	f.conn = conn
	f.mu.Unlock()
	defer conn.Close()

	if _, err := fmt.Fprintf(conn, "REPLICATE %d\n", f.cursor.Load()); err != nil {
		return err
	}
	br := bufio.NewReaderSize(conn, 256<<10)
	line, err := br.ReadString('\n')
	if err != nil {
		return err
	}
	if !strings.HasPrefix(line, "OK") {
		return fmt.Errorf("repl: leader rejected stream: %s", strings.TrimSpace(line))
	}
	f.lastContact.Store(time.Now().UnixNano())

	// Acks share the connection with the handshake writer above;
	// wmu orders the ticker goroutine's RACKs against record-cadence
	// RACKs from the read loop.
	var wmu sync.Mutex
	rack := func() {
		wmu.Lock()
		fmt.Fprintf(conn, "RACK %d\n", f.cursor.Load())
		wmu.Unlock()
	}
	tickDone := make(chan struct{})
	defer close(tickDone)
	go func() {
		t := time.NewTicker(rackInterval)
		defer t.Stop()
		for {
			select {
			case <-tickDone:
				return
			case <-t.C:
				rack()
			}
		}
	}()

	sinceAck := 0
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		f.lastContact.Store(time.Now().UnixNano())
		switch {
		case strings.HasPrefix(line, "REPL "):
			rec, err := ParseRecord(strings.TrimRight(line[len("REPL "):], "\r\n"))
			if err != nil {
				return err
			}
			if err := f.apply(rec); err != nil {
				return err
			}
			if sinceAck++; sinceAck >= f.cfg.RackEvery {
				sinceAck = 0
				rack()
			}
		case strings.HasPrefix(line, "OK"):
			// RACK acknowledgement; nothing to do.
		case strings.HasPrefix(line, "ERR "):
			return fmt.Errorf("repl: leader error: %s", strings.TrimSpace(line))
		}
	}
}

// apply is the idempotence gate plus the actual apply: duplicates
// (reconnect overlap) are skipped, gaps abort the stream so the next
// attempt resumes from the cursor, and everything else lands in the
// local WAL + tables before the cursor advances.
func (f *Follower) apply(rec wal.Record) error {
	cur := f.cursor.Load()
	if rec.LSN < cur {
		return nil
	}
	if rec.LSN > cur {
		return fmt.Errorf("repl: gap in stream: want lsn %d, got %d", cur, rec.LSN)
	}
	if err := f.cfg.Engine.DB.ApplyReplicated(rec); err != nil {
		return err
	}
	f.cursor.Store(rec.LSN + 1)
	f.applied.Add(1)
	f.fanOut(rec)
	return nil
}

// fanOut re-publishes a replicated commit's changes as database
// change events through the local broker, so follower-side SUB/MATCH
// subscribers observe the same "db.<table>.<op>" stream the leader's
// trigger capture produces. Queue staging tables and registration
// tables are skipped: their contents replicate as rows, and the
// follower has no queue bindings to double-stage into.
func (f *Follower) fanOut(rec wal.Record) {
	changes, ok, err := storage.DecodeCommitRecord(rec)
	if err != nil || !ok {
		return
	}
	for i := range changes {
		c := &changes[i]
		if queue.IsQueueTable(c.Table) || core.IsRegistrationTable(c.Table) {
			continue
		}
		tbl, ok := f.cfg.Engine.DB.Table(c.Table)
		if !ok {
			continue
		}
		ev := trigger.ChangeToEvent(tbl.Schema(), c, "db")
		if _, err := f.cfg.Engine.Broker.Publish(ev); err != nil {
			f.logf("repl: fan-out publish: %v", err)
		}
	}
}

// beginShutdown stops the reconnect loop and unblocks any read by
// closing the live connection.
func (f *Follower) beginShutdown() {
	f.mu.Lock()
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
}

// finishPromote performs the one-shot leader transition: writes come
// back on, then OnPromote restores durable registrations.
func (f *Follower) finishPromote() {
	f.promoteMu.Lock()
	defer f.promoteMu.Unlock()
	if f.promoted {
		return
	}
	f.promoted = true
	f.cfg.Engine.SetReadOnly(false)
	if f.cfg.OnPromote != nil {
		f.cfg.OnPromote()
	}
}

// Promote stops replication and turns the node into a leader. Acked
// state is never lost: every record the follower ever RACKed is in
// the local WAL. Safe to call more than once.
func (f *Follower) Promote() (string, error) {
	f.beginShutdown()
	<-f.done
	f.finishPromote()
	return "leader", nil
}

// Close stops replication without promoting. The engine stays
// read-only.
func (f *Follower) Close() {
	f.beginShutdown()
	<-f.done
}
