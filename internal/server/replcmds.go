package server

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"eventdb/internal/frame"
	"eventdb/internal/repl"
	"eventdb/internal/storage"
	"eventdb/internal/wal"
)

// Handlers for the replication plane: the leader side of WAL shipping
// (REPLICATE streams, RACK cursor tracking) and the role/promotion
// verbs both sides answer.
//
//	REPLICATE <from-lsn> → "OK <next-lsn>", then a continuous stream of
//	                       "REPL <lsn> {"t":T,"d":B64}" lines — every WAL
//	                       record from from-lsn onward, live-tailed
//	ROLE                 → "OK leader" | "OK follower"
//	RACK <cursor>        → "OK"; follower progress report (next LSN it
//	                       expects), surfaced via Server.ReplicaCursors
//	PROMOTE              → "OK leader"; flips a follower into a leader
//	                       via the Config.Promote hook

// replSinkID is the connection-local sink id of a replication stream;
// "UNSUB repl" detaches it like any other sink.
const replSinkID = "repl"

// replPollQuantum bounds how stale a replication stream can go when
// the commit wake hook misses (DDL appends bypass commit hooks).
const replPollQuantum = 250 * time.Millisecond

// errReplStopped aborts a tailer pass when the sink is detaching.
var errReplStopped = errors.New("server: replication sink stopped")

// replSink streams WAL records to one follower connection. It is
// driven by an after-commit wake (so records ship with commit
// latency, not poll latency) plus a slow poll for appends that do not
// run commit hooks.
type replSink struct {
	c      *conn
	tailer *wal.Tailer
	wake   chan struct{} // 1-buffered commit signal
	unhook func()        // removes the OnCommit wake
	stop   chan struct{}
	done   chan struct{}
}

func (s *replSink) kind() string { return "repl" }

func (s *replSink) detach() {
	s.unhook()
	close(s.stop)
	<-s.done
}

// run ships every tailable record, then sleeps until the next commit
// or poll tick. Stream lines use the blocking path: replication
// tolerates no silent drops, and the TCP window is the follower's
// backpressure.
func (s *replSink) run() {
	defer close(s.done)
	var rec []byte // one record's line, rebuilt in place
	for {
		_, err := s.tailer.Next(func(r wal.Record) error {
			var err error
			if rec, err = repl.AppendRecord(rec[:0], r); err != nil {
				return err
			}
			if !s.send(rec) {
				return errReplStopped
			}
			return nil
		})
		if err != nil {
			if !errors.Is(err, errReplStopped) {
				// Truncated position or on-disk corruption: the stream
				// cannot continue; tell the follower why before it sees
				// the silence. Through the stream's own path, not reply:
				// only the reader replies.
				s.send(fmt.Appendf(rec[:0], "ERR %s replication stream failed: %v", codeInternal, err))
			}
			return
		}
		select {
		case <-s.wake:
		case <-s.stop:
			return
		case <-time.After(replPollQuantum):
		}
	}
}

// send queues one stream line — a REPLY frame when the follower spoke
// HELLO 2 — and reports false if the sink detached first.
func (s *replSink) send(line []byte) bool {
	if !s.c.begin(s.stop, true) {
		return false
	}
	if s.c.binary {
		s.c.pending = frame.AppendFrame(s.c.pending, frame.Reply, line)
	} else {
		s.c.pending = append(append(s.c.pending, line...), '\n')
	}
	s.c.commit(1)
	return true
}

func handleReplicate(c *conn, req *request) bool {
	fromLSN, err := strconv.ParseUint(req.args[0], 10, 64)
	if err != nil {
		c.errf(codeBadArgs, "REPLICATE needs a starting LSN, got %q (usage: REPLICATE <from-lsn>)", req.args[0])
		return true
	}
	eng := c.srv.eng
	if !eng.DB.Durable() {
		c.errf(codeNotDurable, "replication requires a durable engine (-dir)")
		return true
	}
	next := eng.DB.WAL().NextLSN()
	if fromLSN > next {
		c.errf(codeConflict, "from-lsn %d is beyond the log end (next lsn %d)", fromLSN, next)
		return true
	}
	rs := &replSink{
		c:      c,
		tailer: eng.DB.WAL().NewTailer(fromLSN),
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	rs.unhook = eng.DB.OnCommit(func(*storage.CommitInfo) {
		select {
		case rs.wake <- struct{}{}:
		default:
		}
	})
	if !c.addSink(replSinkID, rs) {
		rs.unhook()
		c.errf(codeDup, "a replication stream is already active on this connection")
		return true
	}
	// Reply before the stream starts so the follower's handshake read
	// sees "OK" ahead of any REPL line (both ride the outbound queue
	// in FIFO order).
	c.reply("OK " + strconv.FormatUint(next, 10))
	go rs.run()
	return true
}

func handleRack(c *conn, req *request) bool {
	cursor, err := strconv.ParseUint(req.args[0], 10, 64)
	if err != nil {
		c.errf(codeBadArgs, "RACK needs a cursor LSN, got %q (usage: RACK <cursor>)", req.args[0])
		return true
	}
	c.replCursor.Store(cursor)
	c.reply("OK")
	return true
}

func handlePromote(c *conn, _ *request) bool {
	if c.srv.cfg.Promote == nil {
		if c.srv.eng.ReadOnly() {
			c.errf(codeInternal, "this follower has no promotion hook")
		} else {
			c.reply("OK leader")
		}
		return true
	}
	role, err := c.srv.cfg.Promote()
	if err != nil {
		c.errf(codeInternal, "promote: %v", err)
		return true
	}
	c.reply("OK " + role)
	return true
}

func handleRole(c *conn, _ *request) bool {
	if c.srv.eng.ReadOnly() {
		c.reply("OK follower")
	} else {
		c.reply("OK leader")
	}
	return true
}
