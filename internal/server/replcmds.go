package server

import (
	"fmt"
	"strconv"

	"eventdb/internal/frame"
	"eventdb/internal/repl"
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
//	                       expects), kept per connection for the log's
//	                       floor (ROADMAP item 10); not surfaced yet
//	PROMOTE              → "OK leader"; flips a follower into a leader
//	                       via the Config.Promote hook

// replSinkID is the connection-local sink id of a replication stream;
// "UNSUB repl" detaches it like any other sink.
const replSinkID = "repl"

// replSink streams WAL records to one follower connection through
// storage.DB.Follow, so records ship with commit latency, not poll
// latency.
type replSink struct {
	c    *conn
	from uint64
	stop chan struct{}
	done chan struct{}
}

func (s *replSink) detach() {
	close(s.stop)
	<-s.done
}

// run ships every record from s.from on until the sink detaches.
// Stream lines use the blocking path: replication tolerates no silent
// drops, and the TCP window is the follower's backpressure.
func (s *replSink) run() {
	defer close(s.done)
	var rec []byte // one record's line, rebuilt in place
	err := s.c.srv.eng.DB.Follow(s.from, s.stop, func(recs []wal.Record) error {
		for _, r := range recs {
			var err error
			if rec, err = repl.AppendRecord(rec[:0], r); err != nil {
				return err
			}
			if !s.send(rec) {
				return nil // detaching: Follow sees stop and returns
			}
		}
		return nil
	})
	if err == nil {
		return
	}
	// Truncated position or on-disk corruption: the stream cannot
	// continue; tell the follower why before it sees the silence.
	// Through the stream's own path, not reply: only the reader
	// replies. Then leave the connection's sinks, unless a detach
	// already took this one out.
	s.send(fmt.Appendf(rec[:0], "ERR %s replication stream failed: %v", codeInternal, err))
	s.c.mu.Lock()
	if s.c.sinks[replSinkID] == sink(s) {
		delete(s.c.sinks, replSinkID)
	}
	s.c.mu.Unlock()
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
	if c.hasSink(replSinkID) {
		c.errf(codeDup, "a replication stream is already active on this connection")
		return true
	}
	rs := &replSink{c: c, from: fromLSN, stop: make(chan struct{}), done: make(chan struct{})}
	c.addSink(replSinkID, rs)
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
