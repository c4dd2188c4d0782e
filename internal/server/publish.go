package server

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"eventdb/internal/event"
)

// publish is the one way an event gets from the wire into the engine.
// Four verbs bring events in — PUB (a text line or a Cmd frame), the
// binary Pub frame, PUBT and PUBB — and their handlers all end here:
// bodies are decoded here and nowhere else, ingested here and nowhere
// else, and every outcome has one reply site. The request is either the
// event that came with the command (body, bodies == 0) or that many
// body units still on the wire (PUBB). The event decoded from body
// keeps it as its one copy of the bytes, so a text PUB's body is the
// command line's, and a body read in place (a frame, a PUBB line) is
// copied out of the reader's buffer as it is decoded; a canonical
// body's attributes stay offsets into that copy, with no map
// (event.UnmarshalJSONEventString). commit, if set,
// runs between a successful ingest (one whose commits the OS has, see
// flushed) and its reply. publish returns false only when framing is
// lost.
//
// A request that is complete on its command line passed its verb's
// gates before it got here. PUBB passes them here, once its bodies are
// off the wire — a refusal sent ahead of them would leave the client's
// events to be read as commands — and all of them are read even when
// the batch is refused or one is bad.
func publish(c *conn, body string, bodies int, commit func()) bool {
	batch := bodies > 0
	var one [1]*event.Event
	evs := one[:0]
	if batch {
		evs = make([]*event.Event, 0, bodies)
	}
	var bad error
	for i := 0; i < max(bodies, 1); i++ {
		var ev *event.Event
		var err error
		if batch {
			raw, ok := c.readBody()
			if !ok {
				return false
			}
			if bad != nil {
				continue
			}
			// The event's one copy of the body is made out of raw here,
			// so the reader may reuse the buffer for the next frame or
			// line.
			ev, err = event.UnmarshalJSONEventString(string(raw))
		} else {
			ev, err = event.UnmarshalJSONEventString(body)
		}
		if err != nil {
			bad = err
			if batch {
				bad = fmt.Errorf("event %d: %w", i, err)
			}
			continue
		}
		evs = append(evs, ev)
	}
	if batch && !admit(c, commands["PUBB"], "PUBB") {
		return true
	}
	if bad != nil {
		c.errf(codeBadJSON, "%v", bad)
		return true
	}
	// One event answers with its exact delivery count; a batch answers
	// with the number of events accepted.
	var n int
	var err error
	if batch {
		n, err = len(evs), c.srv.eng.IngestBatch(evs)
	} else {
		n, err = c.srv.eng.IngestCount(evs[0])
	}
	if err != nil {
		c.errf(codeInternal, "%v", err)
		return true
	}
	if !c.flushed() {
		return true
	}
	if commit != nil {
		commit()
	}
	c.reply("OK " + strconv.Itoa(n))
	return true
}

// flushed makes what a request committed survive this process before
// its OK goes out: under -dir the WAL's user-space buffer is written to
// the OS, once per request however many commits the request made (a
// 64-event PUBB pays one write). Without it an acknowledged publish
// could still be lost to a SIGKILL. ACK and NACK do not wait for it: a
// lost settlement is a redelivery, which at-least-once allows. It
// reports false after answering ERR degraded.
func (c *conn) flushed() bool {
	if err := c.srv.eng.DB.Flush(); err != nil {
		c.errf(codeDegraded, "%v", err)
		return false
	}
	return true
}

func handlePub(c *conn, req *request) bool {
	return publish(c, req.tail, 0, nil)
}

// publishFrame is the binary fast path: a Pub frame's payload is the
// JSON event itself, so there is no verb to parse, and the one copy of
// the body is the one made out of the frame reader's buffer. It is PUB
// in everything else — PUB's gates, then the same door.
func publishFrame(c *conn, payload []byte) {
	if admit(c, commands["PUB"], "PUB") {
		publish(c, string(payload), 0, nil)
	}
}

// handlePubBatch reads the count of a PUBB; its n event bodies — lines
// in text mode, DATA frames in binary mode — are publish's to read. It
// returns false only when framing is lost (unreadable count, unreadable
// body) or the connection itself failed.
func handlePubBatch(c *conn, req *request) bool {
	n, err := strconv.Atoi(strings.TrimSpace(req.tail))
	if err != nil {
		// Unreadable count: the following bodies can't be framed, so the
		// connection must drop rather than misread events as commands.
		c.errf(codeBadArgs, "bad batch size %q", req.tail)
		return false
	}
	if n <= 0 || n > maxBatch {
		// The count is known, so stay in sync by consuming the batch.
		for i := 0; i < n; i++ {
			if _, ok := c.readBody(); !ok {
				return false
			}
		}
		c.errf(codeTooBig, "batch size %d out of range (want 1..%d)", n, maxBatch)
		return true
	}
	return publish(c, "", n, nil)
}

// handlePubT is PUB with an idempotency token — the server-side half of
// exactly-once republish across client reconnects:
//
//	PUBT <session> <seq> <json-event> → "OK <deliveries>", or "OK 0 dup"
//
// The client names a session and a strictly increasing sequence number,
// and a retry of an already-ingested sequence is acknowledged instead of
// published twice. The sequence is recorded only after a successful
// ingest, so a failed attempt stays retryable.
func handlePubT(c *conn, req *request) bool {
	session := req.args[0]
	seq, err := strconv.ParseUint(req.args[1], 10, 64)
	if err != nil || seq == 0 {
		c.errf(codeBadArgs, "PUBT needs a sequence >= 1, got %q", req.args[1])
		return true
	}
	ledger := &c.srv.pubt
	if ledger.seen(session, seq) {
		c.reply("OK 0 dup")
		return true
	}
	return publish(c, req.tail, 0, func() { ledger.record(session, seq) })
}

// maxPubTSessions bounds the publish-session ledger so clients cannot
// grow server memory without bound by inventing session tokens.
const maxPubTSessions = 4096

// pubtLedger is the PUBT idempotency ledger: the highest ingested
// sequence per publish session, shared across connections so a client
// can republish after a reconnect without duplication. Past
// maxPubTSessions a new session evicts the one that has gone longest
// without a PUBT: publishers that have exited (every retrying client
// process makes a fresh token) make room for the ones that are live.
type pubtLedger struct {
	mu       sync.Mutex
	clock    uint64 // ticks once per touch; a session's stamp is its last
	sessions map[string]*pubtSession
}

type pubtSession struct {
	seq  uint64 // highest ingested sequence
	used uint64 // ledger clock at the last PUBT under this session
}

// seen reports whether seq was already ingested under session.
func (l *pubtLedger) seen(session string, seq uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.sessions[session]
	if s == nil {
		return false
	}
	l.clock++
	s.used = l.clock
	return seq <= s.seq
}

// record notes that seq was ingested under session.
func (l *pubtLedger) record(session string, seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.sessions[session]
	if s == nil {
		if len(l.sessions) >= maxPubTSessions {
			var oldest string
			stamp := ^uint64(0)
			for name, o := range l.sessions {
				if o.used < stamp {
					oldest, stamp = name, o.used
				}
			}
			delete(l.sessions, oldest)
		}
		s = new(pubtSession)
		l.sessions[session] = s
	}
	l.clock++
	s.used, s.seq = l.clock, max(s.seq, seq)
}
