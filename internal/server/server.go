// Package server exposes an engine over TCP with a full-duplex,
// line-oriented streaming protocol. Beyond the request/response
// external path into the message store (§2.2.b.i.2), foreign systems
// can register subscriptions and continuous queries whose matches are
// *pushed* to them as events arrive — the paper's extension of
// traditional publish/subscribe with predicates stored and evaluated
// inside the store (§2.2.c.i.2) — and, since the command-plane
// refactor, reach the database half of the engine: tables, DML that
// fires triggers, one-shot queries, and watched queries, making all
// three §2.2.a capture mechanisms exercisable over one connection.
//
// Every verb is an entry in a command registry (command.go): a name, a
// declared argument shape, and a handler. The read loop below parses
// the shared framing and dispatches; no verb-specific logic lives in
// it.
//
// # Wire modes
//
// Connections start in the legacy text protocol (one command per
// line). A client may negotiate up with
//
//	HELLO <version> [flags] → "OK <version> [flags]"
//
// before registering any sink. Version 2 switches both directions to
// length-prefixed binary frames (internal/frame): commands and replies
// travel as CMD/REPLY frames carrying the exact text-protocol lines,
// while the hot paths get typed frames — PUB carries a bare JSON event
// (no verb parse), EVT/QEVT carry the cached Event.EncodedJSON bytes
// behind a tiny binary header (no line scanning on either side). The
// "park" flag additionally lets an idle connection's reader goroutine
// be released to a shared epoll poller (park_linux.go) until bytes
// arrive — the difference between 2 goroutines per subscriber and ~0.
// The full wire contract, both modes, lives in PROTOCOL.md.
//
// Message plane (one request per line; <id> is any token without
// spaces):
//
//	PUB <json-event>    → "OK <deliveries>" after rules+pubsub evaluation
//	PUBB <n>            → next n lines are JSON events, ingested as one
//	                      batch; one "OK <n>" reply
//	MATCH <json-event>  → "OK <sub,sub,...>" — match only, no delivery
//	SUB <id> <filter>   → "OK"; pushes "EVT <id> <json-event>" on match
//	CQ <id> <json-spec> → "OK"; attaches a continuous query (see
//	                      cq.ParseSpec) and pushes incremental results
//	                      as "EVT <id> <json-event>"
//	UNSUB <id>          → "OK"; detaches any sink (subscription, CQ, or
//	                      durable consumer) registered under the id
//	STATS [format=json] → "OK sent=N dropped=N queued=N subs=N cqs=N qsubs=N"
//	                      (stable field order; format=json returns the
//	                      same fields as a JSON object)
//	PING                → "PONG"
//	QUIT                → closes the connection
//
// Database plane (dbcmds.go; specs are single-line JSON documents, see
// internal/wiredb):
//
//	TABLE <json-spec>        → "OK"; creates a table
//	INSERT <table> <json>    → "OK <rowid>"; the commit fires BEFORE
//	                           triggers (which may veto → "ERR aborted")
//	                           and AFTER triggers (whose captured
//	                           "db.<table>.<op>" events fan out to every
//	                           SUB/CQ/QSUB like any published event)
//	UPDATE <table> <json>    → "OK <n>"; {"where":"qty < 5","set":{...}}
//	DELETE <table> <json>    → "OK <n>"; {"where":"qty < 5"}
//	SELECT <json-spec>       → "OK {"columns":[...],"rows":[[...]]}" —
//	                           one-shot read through the query planner
//	TRIG <name> <json-spec>  → "OK"; registers a trigger with optional
//	                           WHEN guard over old./new. images and
//	                           optional BEFORE veto
//	UNTRIG <name>            → "OK"; drops it
//	WATCH <name> <json-spec> → "OK"; schedules a repeatedly-evaluated
//	                           query whose result-set diffs are ingested
//	                           as "query.<name>.<added|removed|changed>"
//	                           events
//	UNWATCH <name>           → "OK"; stops polling
//
// Durable subscriptions stage matched events in a named, WAL-recovered
// queue (internal/queue) instead of pushing fire-and-forget, so a
// consumer can drop, reconnect — even across a server restart — and
// resume without loss:
//
//	QSUB <name> <auto|manual> <filter>
//	                    → "OK"; binds the filter to durable queue <name>
//	                      (created on first use, shared by reconnecting
//	                      and competing consumers) and starts push-mode
//	                      delivery: each message arrives as
//	                      "QEVT <name> <receipt> <attempt> <json-event>".
//	                      manual: at-least-once, the client must ACK or
//	                      NACK each receipt; at most QueuePrefetch are
//	                      outstanding, and a consumer at that limit
//	                      resumes once half of them are settled, in
//	                      bursts (see queueSink). auto: the server acks on
//	                      push (receipt "-"). A fresh QSUB (after UNSUB,
//	                      a reconnect, or from another connection) with
//	                      a new filter rebinds the queue; while a QSUB
//	                      is live its connection cannot re-QSUB the
//	                      same name.
//	CONSUME <name> <max>
//	                    → "OK <n>" then n QEVT lines: pull-mode dequeue
//	                      of up to max ready messages (always manual-ack)
//	ACK <name> <receipt>
//	                    → "OK"; acknowledges one delivery
//	NACK <name> <receipt> <delay-ms>
//	                    → "OK"; returns a delivery for retry after the
//	                      delay (dead-letters after MaxAttempts)
//	QSTATS <name> [format=json]
//	                    → "OK ready=N inflight=N dead=N outstanding=N"
//	REPLAY <name> <from-lsn>
//	                    → historical backfill: every message ever staged
//	                      into the queue from that WAL position —
//	                      including long-acked ones — is pushed as
//	                      "QEVT <name> h<lsn> 0 <json-event>", then
//	                      "OK <count> <next-lsn>". Requires a durable
//	                      engine (-dir).
//
// Replies are single lines in request order; errors are
// "ERR <code> <message>" where <code> is a stable token from the
// taxonomy in errors.go (documented in ARCHITECTURE.md and
// PROTOCOL.md). Pushed "EVT"/"QEVT" lines interleave with replies at
// line granularity — clients demultiplex on the line prefix (text
// mode) or the frame type (binary mode).
//
// # Push-queue overflow
//
// Every outbound message — reply, push, durable delivery, replication
// record — is appended in its wire form to one per-connection buffer,
// under a mutex, and an on-demand writer takes the whole buffer and
// puts it on the socket with one write: the reader goroutine itself for
// a reply the client is waiting on, else a short-lived burst goroutine.
// The buffer is bounded in messages (Config.SubBuffer), so one slow
// consumer cannot stall the engine or other connections. Command
// replies always block until queued (they are bounded by request
// rate); pushed EVT lines follow the configured Overflow policy:
// BlockOnFull propagates pressure to the publishing goroutine,
// DropOnFull drops the push and counts it in the connection's drop
// counter (surfaced by STATS).
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/frame"
	"eventdb/internal/metrics"
	"eventdb/internal/query"
	"eventdb/internal/queue"
)

// Overflow selects what pushing to a connection with a full outbound
// queue does.
type Overflow int

const (
	// BlockOnFull (the default) blocks the publishing goroutine until
	// the connection's writer drains — lossless, propagates pressure
	// into the engine.
	BlockOnFull Overflow = iota
	// DropOnFull drops the pushed line and counts it in the
	// connection's drop counter — bounded latency, lossy per consumer.
	DropOnFull
)

// String names the policy for logs and flags.
func (o Overflow) String() string {
	if o == DropOnFull {
		return "drop"
	}
	return "block"
}

// Config tunes the server.
type Config struct {
	// MaxConns caps concurrent client connections; excess connections
	// are refused with "ERR limit connection limit reached". 0 =
	// unlimited.
	MaxConns int
	// SubBuffer is each connection's outbound queue capacity in messages
	// — replies, pushes, deliveries — not in bytes (default 256).
	SubBuffer int
	// Overflow picks the full-queue policy for pushed EVT lines.
	// Durable QEVT lines always block: the staging queue is their
	// backpressure, and at-least-once delivery tolerates no silent
	// drops.
	Overflow Overflow
	// ReadTimeout bounds how long a client may take to finish
	// transmitting a command once it has begun (a partial line, or a
	// binary frame whose header arrived). An idle connection — nothing
	// sent at all — is never killed by it: push subscribers legitimately
	// go quiet forever. 0 disables the bound (no read deadlines are
	// armed at all unless parking needs them).
	ReadTimeout time.Duration
	// WriteTimeout bounds each socket flush of the outbound queue, so a
	// half-open or wedged client cannot pin a writer goroutine forever —
	// the write fails, the socket closes, and the connection tears
	// down. 0 disables it (teardown still bounds the final drain with
	// DrainTimeout).
	WriteTimeout time.Duration
	// DrainTimeout bounds how long a closing connection's final flush
	// may spend on the socket (default 2s) — and therefore how long a
	// stuck consumer can hold Server.Close. Surfaced as eventdbd's
	// -drain-timeout flag.
	DrainTimeout time.Duration
	// EvictAfterDrops evicts a connection once this many consecutive
	// pushed events were dropped under the DropOnFull policy with no
	// successful enqueue in between — a consumer that stopped draining
	// for good, not one having a bad moment. The eviction closes only
	// that connection (counted in server.evicted). 0 disables eviction.
	EvictAfterDrops int
	// ParkAfter is how long a connection that negotiated the "park"
	// flag must stay idle before its reader goroutine is released to
	// the shared poller (default 100ms). Only meaningful where parking
	// is supported (linux).
	ParkAfter time.Duration
	// Queue tunes the durable queues QSUB creates (visibility timeout,
	// max delivery attempts). Zero values take queue.Config defaults.
	Queue queue.Config
	// QueuePrefetch caps unacknowledged deliveries per manual-ack
	// durable consumer; delivery pauses until the client acks (default
	// 256).
	QueuePrefetch int
	// WatchInterval is the default poll cadence for WATCHed queries
	// whose spec does not set interval_ms (default 100ms).
	WatchInterval time.Duration
	// Promote is the follower-promotion hook wired by the process that
	// owns the replication follower (cmd/eventdbd -follow). It performs
	// the leader transition and returns the node's new role. Nil means
	// the node has no follower machinery: PROMOTE replies "OK leader"
	// if writes are already enabled and errors otherwise.
	Promote func() (string, error)
}

const (
	defaultSubBuffer = 256
	// defaultQueuePrefetch bounds unacked deliveries per durable
	// consumer.
	defaultQueuePrefetch = 256
	// defaultParkAfter is the idle threshold before a park-negotiated
	// connection releases its reader goroutine.
	defaultParkAfter = 100 * time.Millisecond
	// maxBatch caps PUBB so a client cannot make the server buffer an
	// unbounded batch.
	maxBatch = 65536
	// defaultDrainTimeout bounds how long a closing connection's writer
	// may spend flushing its remaining queued lines when
	// Config.DrainTimeout is unset.
	defaultDrainTimeout = 2 * time.Second
	// protocolVersion is the highest wire version this server speaks:
	// 1 = text lines, 2 = binary frames (PROTOCOL.md).
	protocolVersion = 2
)

// Server serves one engine over TCP.
type Server struct {
	eng *core.Engine
	cfg Config
	ln  net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[*conn]struct{}
	wg     sync.WaitGroup
	done   chan struct{} // closed by Close; wakes backoff waits

	lingering chan struct{} // semaphore: refused connections being drained

	nextConn atomic.Uint64

	pubt pubtLedger // PUBT idempotency ledger (publish.go)
}

// Start listens on addr ("127.0.0.1:0" picks a free port) with default
// configuration.
func Start(eng *core.Engine, addr string) (*Server, error) {
	return StartConfig(eng, addr, Config{})
}

// StartConfig is Start with explicit tuning.
func StartConfig(eng *core.Engine, addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen: %w", err)
	}
	return serve(eng, ln, cfg), nil
}

// ServeListener runs a server over an already-bound listener, so
// harnesses (internal/testnet's chaos tests, embedders with their own
// socket setup) can interpose fault-injecting wrappers between the
// accept loop and the wire.
func ServeListener(eng *core.Engine, ln net.Listener, cfg Config) *Server {
	return serve(eng, ln, cfg)
}

// serve runs a server over an already-bound listener (separated from
// StartConfig so tests can inject failing listeners).
func serve(eng *core.Engine, ln net.Listener, cfg Config) *Server {
	if cfg.SubBuffer <= 0 {
		cfg.SubBuffer = defaultSubBuffer
	}
	if cfg.QueuePrefetch <= 0 {
		cfg.QueuePrefetch = defaultQueuePrefetch
	}
	if cfg.ParkAfter <= 0 {
		cfg.ParkAfter = defaultParkAfter
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = defaultDrainTimeout
	}
	s := &Server{
		eng:       eng,
		cfg:       cfg,
		ln:        ln,
		conns:     make(map[*conn]struct{}),
		done:      make(chan struct{}),
		lingering: make(chan struct{}, maxLingering),
		pubt:      pubtLedger{sessions: make(map[string]*pubtSession)},
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, then closes live client connections and waits
// for every tracked goroutine to finish, so callers can safely tear
// down the engine afterwards without leaking goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// Wake the accept loop out of any error backoff, then stop
	// accepting: no new connection can slip in after the drain below.
	close(s.done)
	err := s.ln.Close()
	// Snapshot, then interrupt OUTSIDE the lock: interrupt takes each
	// connection's pmu, and the poller's unpark path holds pmu while
	// acquiring s.mu (via goGo) — interrupting under s.mu would be the
	// classic AB/BA deadlock at exactly the worst moment (thousands of
	// connections hanging up at once).
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.interrupt()
	}
	s.wg.Wait()
	return err
}

// goGo runs f on a goroutine tracked by the server's WaitGroup, unless
// the server is already closing (false). Close waits for every tracked
// goroutine, so anything that touches the engine must run tracked.
func (s *Server) goGo(f func()) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		f()
	}()
	return true
}

const (
	// refuseLinger bounds how long a refused connection is kept open so
	// that its refusal line can be read; maxLingering bounds how many
	// are kept at once.
	refuseLinger = 250 * time.Millisecond
	maxLingering = 64
)

// refuse tells an over-limit peer why and hangs up. Refusals happen
// before any HELLO, so they are always text. Closing straight after the
// write can lose the line: the peer's first command is usually in
// flight, closing with it unread makes the kernel answer RST, and an
// RST discards what the peer has not read yet. So the write side is
// shut (a FIN behind the line) and whatever the peer sends is read off
// on a tracked goroutine until it hangs up or refuseLinger passes. In a
// flood, refusals beyond maxLingering at once get the plain close.
func (s *Server) refuse(nc net.Conn) {
	_, err := fmt.Fprintf(nc, "ERR %s connection limit reached\n", codeLimit)
	hc, canHalfClose := nc.(interface{ CloseWrite() error })
	if err == nil && canHalfClose {
		select {
		case s.lingering <- struct{}{}:
			if s.goGo(func() {
				defer func() { <-s.lingering }()
				defer nc.Close()
				if nc.SetReadDeadline(time.Now().Add(refuseLinger)) == nil && hc.CloseWrite() == nil {
					io.Copy(io.Discard, nc) // ends at the peer's close or the deadline
				}
			}) {
				return
			}
			<-s.lingering
		default:
		}
	}
	nc.Close()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := 5 * time.Millisecond
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			// Transient failures (e.g. EMFILE during a connection
			// flood) must not kill accepting for the server's lifetime;
			// back off and retry until Close actually closes the
			// listener.
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			s.eng.Metrics.Counter("server.accept_errors").Inc()
			// The backoff must not outlive Close: a plain sleep here
			// would stall shutdown for up to a second.
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-s.done:
				timer.Stop()
				return
			}
			if backoff < time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = 5 * time.Millisecond
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.eng.Metrics.Counter("server.refused").Inc()
			s.refuse(nc)
			continue
		}
		c := &conn{
			srv:      s,
			id:       s.nextConn.Add(1),
			nc:       nc,
			fd:       -1,
			stop:     make(chan struct{}),
			sinks:    make(map[string]sink),
			receipts: make(map[string]map[string]trackedReceipt),
		}
		// Capture the raw fd for the parking poller. Holding the integer
		// past the Control callback is safe here: it is only ever used
		// to arm epoll while the conn is registered, and a stale arm on
		// a recycled fd at worst produces a harmless spurious unpark.
		if tc, ok := nc.(*net.TCPConn); ok {
			if sc, err := tc.SyscallConn(); err == nil {
				sc.Control(func(fd uintptr) { c.fd = int(fd) })
			}
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.eng.Metrics.Counter("server.accepted").Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.readLoop()
		}()
	}
}

// Writer states: one writer at a time owns the socket and drains the
// outbound queue. The reader takes the slot for the one write of a
// reply its client is waiting on (reply); every other producer that
// queues into an idle connection spawns a burst goroutine, which exits
// when the queue runs dry — an idle connection holds no writer
// goroutine at all.
const (
	wIdle    = iota // nobody writes; the next commit spawns a burst
	wRunning        // a burst goroutine, or the reader writing its reply, owns the socket
	wClosed         // teardown owns the socket; nothing is queued ever again
)

// conn is one client connection. A reader goroutine parses commands
// (and may be parked away entirely while the connection idles, see
// park_linux.go) and writes the replies its client is waiting on;
// everything else drains through on-demand writer bursts. It is the
// per-connection session state threaded through every handler.
//
// The outbound queue is a byte buffer, not a queue of messages: a
// producer calls begin, appends its message's complete wire form (text
// line + '\n', or a binary frame) to pending, and calls commit; the
// writer swaps pending for the buffer it wrote last and issues one
// Write. A message therefore costs its producer one append under omu
// — no per-message buffer, channel operation or clock read — and
// steady-state fan-out allocates nothing.
type conn struct {
	srv  *Server
	id   uint64
	nc   net.Conn
	fd   int           // raw socket fd for epoll parking; -1 if unavailable
	br   *bufio.Reader // owned by the reader goroutine
	fr   *frame.Reader // binary-mode decoder over br (reader goroutine)
	stop chan struct{} // closed at teardown; unblocks producers

	omu     sync.Mutex
	pending []byte        // wire bytes of the queued messages, back to back
	queued  int           // messages in pending, at most Config.SubBuffer
	room    chan struct{} // made by a producer that found the queue full; closed when the writer empties it
	wstate  int           // wIdle/wRunning/wClosed burst ownership
	latEv   *event.Event  // the event whose push delay was observed last

	// spare and wfail belong to whoever owns the socket (the running
	// burst, or teardown once it holds wClosed).
	spare []byte // the buffer written last, pending's next backing store
	wfail bool   // a socket write failed; bursts keep draining, not writing

	// binary, parkOK, and lowprio are written only by the reader
	// goroutine while handling HELLO, which is refused once any sink
	// exists — so every concurrent producer (broker callbacks, queue
	// consumers, repl streams) is registered strictly after the flip and
	// observes it through its own registration's synchronization.
	binary  bool
	parkOK  bool
	lowprio bool // sheddable under overload (HELLO flag "lowprio")

	torn       atomic.Bool // teardown has begun (it runs once)
	pmu        sync.Mutex
	parked     bool // reader released; the poller owns wake-up
	closing    bool // interrupt ran; never park or respawn again
	readerDead bool // reader exited for good (not parked)

	sent         atomic.Uint64 // messages handed to the socket (lines or frames)
	writeCalls   atomic.Uint64 // write(2) calls that carried them
	writerStarts atomic.Uint64 // burst goroutines started
	dropped      atomic.Uint64 // EVT pushes lost to DropOnFull
	replCursor   atomic.Uint64 // latest RACKed cursor from a REPLICATE peer

	// consecDrops counts pushes dropped since the last successful
	// enqueue; at Config.EvictAfterDrops the connection is evicted. Both
	// are touched by concurrent producers, hence atomic.
	consecDrops atomic.Uint64
	evicted     atomic.Bool

	// lat tracks event-time → push delivery latency for this
	// connection's sinks; surfaced by STATS format=json.
	lat metrics.LatencyHistogram

	mu       sync.Mutex
	sinks    map[string]sink // local id → registered delivery sink
	everSink bool            // a sink was registered at least once (locks HELLO)

	rmu      sync.Mutex
	receipts map[string]map[string]trackedReceipt // queue → token → outstanding delivery

	// The reader goroutine's own: the working memory of this connection's
	// SELECTs (made by the first), and the buffer its longer replies are
	// built in.
	qs   *query.Scratch
	rbuf []byte
}

// brokerID namespaces a connection-local subscription id so concurrent
// connections cannot collide in the shared broker.
func (c *conn) brokerID(localID string) string {
	return fmt.Sprintf("wire.%d.%s", c.id, localID)
}

// maxRecycledLine is the most an outbound buffer may have carried and
// still be kept for the next write, so one huge payload (or one deep
// backlog) cannot pin its footprint for the connection's lifetime. The
// test is on what was written, not on the capacity: append's growth
// step overshoots, and a buffer dropped for that would be regrown from
// nothing on every burst that fills the queue.
const maxRecycledLine = 64 << 10

// begin locks the outbound queue with room for one more message. When
// the queue is full it waits — if wait is set — until the writer
// empties it, stop fires (a sink detaching; nil for none) or the
// connection tears down. On true the caller appends one message's wire
// form to c.pending and calls commit; on false nothing is held and the
// message was not queued.
func (c *conn) begin(stop <-chan struct{}, wait bool) bool {
	c.omu.Lock()
	for c.wstate != wClosed {
		if c.queued < c.srv.cfg.SubBuffer {
			return true
		}
		if !wait {
			break
		}
		if c.room == nil {
			c.room = make(chan struct{})
		}
		room := c.room
		c.omu.Unlock()
		select {
		case <-room:
		case <-stop:
			return false
		case <-c.stop:
			return false
		}
		c.omu.Lock()
	}
	c.omu.Unlock()
	return false
}

// commit counts the n messages appended since begin (begin promises
// room for one; a caller appending more checks c.queued against
// SubBuffer itself), releases the queue, and makes sure a writer burst
// is running to drain it.
func (c *conn) commit(n int) {
	c.queued += n
	spawn := c.wstate == wIdle
	if spawn {
		c.wstate = wRunning
	}
	c.omu.Unlock()
	if spawn {
		c.startBurst()
	}
}

// startBurst hands the writer slot, already taken, to a new burst.
// Deliberately untracked by the server WaitGroup: once teardown takes
// wClosed no burst can start, and teardown waits out the one that may
// be running.
func (c *conn) startBurst() {
	c.writerStarts.Add(1)
	go c.burst()
}

// reply queues a command reply in the negotiated wire form. Replies are
// never dropped: they are bounded by request rate, and the protocol's
// request/reply ordering depends on every one arriving.
//
// Only the reader goroutine replies. When the writer is idle and no
// more input is buffered, the client is waiting for this reply alone,
// and the reader writes it itself: no goroutine to start and wake for
// one write. Pushes queued during that write go to a burst, so the
// reader never turns into a writer for someone else's traffic. With
// input buffered the client is pipelining, and the reply goes to a
// burst as well: it writes while the reader parses the next command,
// coalescing the replies that follow.
func (c *conn) reply(line string) {
	if !c.begin(nil, true) {
		return
	}
	if c.binary {
		c.pending = frame.AppendFrameString(c.pending, frame.Reply, line)
	} else {
		c.pending = append(append(c.pending, line...), '\n')
	}
	if c.wstate != wIdle || c.br.Buffered() > 0 {
		c.commit(1)
		return
	}
	c.queued++
	c.wstate = wRunning
	if c.flush() {
		c.startBurst()
	}
}

// qline is one durable delivery on its way to the outbound queue.
type qline struct {
	token   string
	attempt int
	data    []byte        // the event's JSON form
	r       queue.Receipt // what an ACK of token settles (unset for "-" and REPLAY's "h<lsn>")
}

// queueQEvts queues durable deliveries in the negotiated wire form, as
// many under one hold of the outbound queue as it has room for — a
// consumer's burst leaves in one write — blocking while it is full, and
// returns how many it queued: all of them, unless stop fired or the
// connection tore down first. A QEVT is never dropped, the staging
// queue is its backpressure.
func (c *conn) queueQEvts(stop <-chan struct{}, name string, evts []qline) int {
	queued := 0
	for queued < len(evts) && c.begin(stop, true) {
		n := min(len(evts)-queued, c.srv.cfg.SubBuffer-c.queued)
		for _, e := range evts[queued : queued+n] {
			if c.binary {
				c.pending = frame.AppendQEvt(c.pending, name, e.token, e.attempt, e.data)
				continue
			}
			c.pending = append(c.pending, "QEVT "...)
			c.pending = append(c.pending, name...)
			c.pending = append(c.pending, ' ')
			c.pending = append(c.pending, e.token...)
			c.pending = append(c.pending, ' ')
			c.pending = strconv.AppendInt(c.pending, int64(e.attempt), 10)
			c.pending = append(c.pending, ' ')
			c.pending = append(append(c.pending, e.data...), '\n')
		}
		c.commit(n)
		queued += n
	}
	return queued
}

// pushEvent queues one pushed event for a subscription or continuous
// query under the configured overflow policy. The payload comes from
// the event's encode-once cache: an event fanned out to M sinks across
// any number of connections is marshaled exactly once, and each sink
// pays a header and a copy into its connection's outbound buffer.
// (A derived event — Clone — carries a fresh cache, so a cached payload
// can never go stale.)
func (c *conn) pushEvent(localID string, ev *event.Event) {
	data, err := ev.EncodedJSON()
	if err != nil {
		c.srv.eng.Metrics.Counter("server.push.encode_errors").Inc()
		return
	}
	drop := c.srv.cfg.Overflow == DropOnFull
	if !c.begin(nil, !drop) {
		if drop && !c.torn.Load() {
			c.dropped.Add(1)
			c.srv.eng.Metrics.Counter("server.push.dropped").Inc()
			// Sustained overflow with no drain in between is a consumer
			// that went away without hanging up; cut it loose so its
			// queue, buffers, and subscriptions stop costing the engine.
			// The == keeps racing producers from evicting twice.
			if ea := c.srv.cfg.EvictAfterDrops; ea > 0 && c.consecDrops.Add(1) == uint64(ea) {
				c.evict()
			}
		}
		return
	}
	if c.binary {
		c.pending = frame.AppendEvt(c.pending, localID, data)
	} else {
		c.pending = append(c.pending, "EVT "...)
		c.pending = append(c.pending, localID...)
		c.pending = append(c.pending, ' ')
		c.pending = append(append(c.pending, data...), '\n')
	}
	// One clock read per (connection, event), not per sink: the sinks of
	// one connection see an event back to back.
	first := c.latEv != ev
	c.latEv = ev
	c.commit(1)
	if drop && c.srv.cfg.EvictAfterDrops > 0 {
		c.consecDrops.Store(0)
	}
	// Delivery latency: event timestamp to push. Events carrying no
	// timestamp, a future one, or one older than an hour (historical
	// REPLAY backfill) would only distort the histogram.
	if first && !ev.Time.IsZero() {
		if d := time.Since(ev.Time); d >= 0 && d <= time.Hour {
			c.lat.Observe(d)
		}
	}
}

// queuedNow reports the outbound queue's depth in messages (STATS).
func (c *conn) queuedNow() int {
	c.omu.Lock()
	defer c.omu.Unlock()
	return c.queued
}

// take empties the outbound queue into the hands of the caller, who
// holds omu and owns the socket, and wakes the producers waiting for
// room.
func (c *conn) take() (buf []byte, n int) {
	buf, n = c.pending, c.queued
	c.pending, c.queued, c.spare = c.spare[:0], 0, nil
	if c.room != nil {
		close(c.room)
		c.room = nil
	}
	return buf, n
}

// write puts one taken buffer of n messages on the socket, in one
// Write, and keeps the buffer for the next take. After a failure it
// closes the socket (forcing the reader to tear down) and from then on
// discards, so producers drain instead of deadlocking.
func (c *conn) write(buf []byte, n int) {
	if !c.wfail && n > 0 {
		// Counted on the way in: a client that has read a message must
		// find it in the next STATS.
		c.sent.Add(uint64(n))
		c.writeCalls.Add(1)
		if _, err := c.nc.Write(buf); err != nil {
			c.wfail = true
			c.nc.Close()
		}
	}
	if len(buf) <= maxRecycledLine {
		c.spare = buf
	}
}

// flush is the one step of whoever holds the writer slot, a burst or a
// replying reader: called with omu held, it takes the queue, writes it
// under WriteTimeout, and releases the slot unless more was queued
// during the write. It returns with omu released, reporting whether
// more is queued — the caller then still holds the slot.
func (c *conn) flush() (more bool) {
	buf, n := c.take()
	c.omu.Unlock()
	if wt := c.srv.cfg.WriteTimeout; wt > 0 && !c.wfail {
		c.nc.SetWriteDeadline(time.Now().Add(wt))
	}
	c.write(buf, n)
	c.omu.Lock()
	more = c.queued > 0
	if !more {
		c.wstate = wIdle
	}
	c.omu.Unlock()
	return more
}

// burst drains the outbound queue to the socket, coalescing: whatever
// accumulated while the last write was in flight goes out in the next
// one, so a fan-out burst pays one syscall instead of one per message.
// When the queue runs dry it releases the writer slot and exits — the
// steady state of an idle connection is zero writer goroutines.
func (c *conn) burst() {
	for {
		c.omu.Lock()
		if !c.flush() {
			return
		}
	}
}

// step is a read-loop verdict: keep reading, park the reader, or tear
// the connection down.
type step int

const (
	stepContinue step = iota
	stepPark
	stepClose
)

// readLoop reads commands — text lines or binary frames, depending on
// the negotiated mode — and dispatches each through the command
// registry until the connection errors, a handler asks to close (QUIT,
// loss of framing), or an idle park-negotiated connection hands its
// socket to the shared poller and returns without tearing down.
func (c *conn) readLoop() {
	if c.br == nil {
		c.br = bufio.NewReaderSize(c.nc, 1<<16)
	}
	for {
		switch c.safeStep() {
		case stepPark:
			if c.tryPark() {
				return // the poller now owns wake-up; no teardown
			}
		case stepClose:
			c.teardown()
			return
		}
	}
}

// safeStep runs one read-loop step — a command in the negotiated wire
// mode — with panic isolation: a panicking handler is a bug in one
// request, not grounds to kill the process and every other connection.
// The panic is logged with its stack, counted (server.panics, surfaced
// by HEALTH), and converted into a close of this connection alone; the
// deferred teardown releases its sinks and queued deliveries like any
// other disconnect.
func (c *conn) safeStep() (s step) {
	defer func() {
		if r := recover(); r != nil {
			c.srv.eng.Metrics.Counter("server.panics").Inc()
			log.Printf("server: conn %d: panic in command handler: %v\n%s", c.id, r, debug.Stack())
			s = stepClose
		}
	}()
	if c.binary {
		return c.binaryStep()
	}
	return c.textStep()
}

// armIdle sets the read deadline for waiting on a new command: the
// park threshold when parking is on, else the read timeout (so
// progress is still observed), else none. Idle timeouts never kill the
// connection — they only re-arm or park.
func (c *conn) armIdle() {
	switch {
	case c.parkOK:
		c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.ParkAfter))
	case c.srv.cfg.ReadTimeout > 0:
		c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.ReadTimeout))
	}
}

// armBody sets the read deadline once a command has begun arriving:
// the client now owes the rest within ReadTimeout, or — with no
// timeout configured — forever (clearing any park deadline so a slow
// sender is not mistaken for an idle one).
func (c *conn) armBody() {
	if rt := c.srv.cfg.ReadTimeout; rt > 0 {
		c.nc.SetReadDeadline(time.Now().Add(rt))
	} else if c.parkOK {
		c.nc.SetReadDeadline(time.Time{})
	}
}

// deadlines reports whether this connection ever arms read deadlines;
// when false the read path never touches SetReadDeadline at all.
func (c *conn) deadlines() bool {
	return c.parkOK || c.srv.cfg.ReadTimeout > 0
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// textStep reads and dispatches one text command line.
func (c *conn) textStep() step {
	var partial []byte
	for {
		if c.deadlines() {
			if len(partial) == 0 {
				c.armIdle()
			} else {
				c.armBody()
			}
		}
		chunk, err := c.br.ReadString('\n')
		partial = append(partial, chunk...)
		if err != nil {
			if isTimeout(err) {
				if len(partial) == 0 {
					if c.parkOK && c.br.Buffered() == 0 {
						return stepPark
					}
					continue // idle is allowed; re-arm and keep waiting
				}
				if c.srv.cfg.ReadTimeout > 0 {
					return stepClose // mid-command stall
				}
				continue
			}
			return stepClose
		}
		if !dispatch(c, strings.TrimRight(string(partial), "\r\n")) {
			return stepClose
		}
		return stepContinue
	}
}

// binaryStep reads and dispatches one binary frame.
func (c *conn) binaryStep() step {
	for {
		if c.deadlines() {
			c.armIdle()
		}
		t, payload, err := c.fr.Next()
		if err != nil {
			if isTimeout(err) {
				if !c.fr.Midframe() {
					if c.parkOK && c.br.Buffered() == 0 {
						return stepPark
					}
					continue
				}
				return stepClose // stalled mid-frame
			}
			return stepClose
		}
		switch t {
		case frame.Cmd:
			if !dispatch(c, string(payload)) {
				return stepClose
			}
		case frame.Pub:
			publishFrame(c, payload)
		case frame.Data:
			// A body frame outside a body-consuming command: framing is
			// intact (the length was honored) but the stream is
			// confused enough to drop.
			c.errf(codeBadArgs, "DATA frame outside a command body")
			return stepClose
		default:
			c.errf(codeUnknown, "unexpected frame type %s", t)
			return stepClose
		}
		return stepContinue
	}
}

// newFrameReader builds the connection's binary decoder, wiring the
// OnHeader hook so the read deadline widens to cover a frame's body as
// soon as its header begins arriving.
func newFrameReader(c *conn) *frame.Reader {
	fr := frame.NewReader(c.br)
	fr.OnHeader = c.armBody
	return fr
}

// readBody reads one command body unit — a line in text mode, a DATA
// frame in binary mode (PUBB batches). The returned bytes are only
// valid until the next read; callers must consume or copy immediately.
func (c *conn) readBody() ([]byte, bool) {
	if c.deadlines() {
		c.armBody()
	}
	if c.binary {
		t, payload, err := c.fr.Next()
		if err != nil || t != frame.Data {
			return nil, false
		}
		return payload, true
	}
	line, err := c.br.ReadString('\n')
	if err != nil {
		return nil, false
	}
	return []byte(strings.TrimRight(line, "\r\n")), true
}

// interrupt begins shutdown of one connection from outside its reader
// (the Server.Close path). A live reader is woken by closing the
// socket and tears down itself; a parked or already-dead reader has
// nobody to do that, so teardown runs on a fresh tracked goroutine.
func (c *conn) interrupt() {
	c.pmu.Lock()
	c.closing = true
	wasParked := c.parked
	c.parked = false
	dead := c.readerDead
	c.pmu.Unlock()
	if wasParked {
		forgetParked(c)
	}
	if wasParked || dead {
		// The server is already marked closed, so goGo would refuse;
		// track by hand — Close interrupts before it waits on s.wg, so
		// the Add is ordered before the Wait.
		c.srv.wg.Add(1)
		go func() {
			defer c.srv.wg.Done()
			c.teardown()
		}()
		return
	}
	c.nc.Close()
}

// evict force-closes one slow consumer from a producer goroutine
// (the push path, under sustained DropOnFull overflow). A live reader
// is woken by closing the socket and tears down itself, exactly like
// interrupt; a parked reader has nobody to do that, so teardown runs
// on a tracked goroutine. When Server.Close already owns the
// connection (closing is set, or goGo refuses) eviction stands down —
// the close path tears everything down anyway.
func (c *conn) evict() {
	if !c.evicted.CompareAndSwap(false, true) {
		return
	}
	c.srv.eng.Metrics.Counter("server.evicted").Inc()
	c.pmu.Lock()
	if c.closing {
		c.pmu.Unlock()
		return
	}
	c.closing = true
	wasParked := c.parked
	c.parked = false
	dead := c.readerDead
	if wasParked || dead {
		// goGo under pmu follows the unpark path's established pmu→s.mu
		// order. If it refuses, the server is closing: marking the
		// reader dead (still under pmu) guarantees the Close interrupt
		// pass — which runs after closed=true — spawns the teardown.
		if !c.srv.goGo(c.teardown) {
			c.readerDead = true
		}
		c.pmu.Unlock()
		if wasParked {
			forgetParked(c)
		}
		return
	}
	c.pmu.Unlock()
	c.nc.Close()
}

// unpark revives a parked connection when the poller sees readable
// bytes (or EOF). Spurious wakes are fine: the revived reader just
// finds nothing and parks again.
func (c *conn) unpark() {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if !c.parked || c.closing {
		return
	}
	c.parked = false
	if !c.srv.goGo(c.readLoop) {
		// Server is closing; its Close pass will (or did) see
		// parked=false and needs a teardown it can wait on.
		c.readerDead = true
	}
}

// teardown closes one connection exactly once: detach every sink
// (broker subscriptions stop pushing, durable consumers halt and hand
// back their unacked deliveries), release producers, take the writer
// slot for a final bounded drain, close the socket, deregister.
func (c *conn) teardown() {
	if !c.torn.CompareAndSwap(false, true) {
		return
	}
	c.pmu.Lock()
	c.closing = true
	c.readerDead = true
	c.pmu.Unlock()
	// Bound all remaining socket writes first, so a consumer that went
	// away without reading cannot stall the drain below.
	c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.DrainTimeout))
	c.mu.Lock()
	sinks := make([]sink, 0, len(c.sinks))
	for _, s := range c.sinks {
		sinks = append(sinks, s)
	}
	c.sinks = map[string]sink{}
	c.mu.Unlock()
	for _, s := range sinks {
		s.detach()
	}
	// Receipts left by CONSUME on queues no sink covered.
	c.releaseAllReceipts()
	close(c.stop)
	// Take exclusive socket ownership: once wClosed is in, nothing can
	// be queued and no burst can start, and the spin ends as soon as the
	// last burst exits. Bursts terminate promptly — producers are
	// released, the queue is bounded, and the write deadline above caps
	// socket time.
	c.omu.Lock()
	for c.wstate != wIdle {
		c.omu.Unlock()
		runtime.Gosched()
		c.omu.Lock()
	}
	c.wstate = wClosed
	buf, n := c.take()
	c.omu.Unlock()
	c.write(buf, n)
	c.nc.Close()
	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
}

// addSink registers a sink under a connection-local id, refusing
// duplicates. Only the reader goroutine adds sinks, so the check-and-
// insert is race-free; the lock covers concurrent readers (STATS is
// also reader-driven, but teardown swaps the map). Registration also
// permanently locks the wire mode: HELLO is refused once everSink is
// set, which is what makes the unsynchronized mode flags safe.
func (c *conn) addSink(localID string, s sink) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.sinks[localID]; dup {
		return false
	}
	c.sinks[localID] = s
	c.everSink = true
	return true
}

func (c *conn) hasSink(localID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.sinks[localID]
	return ok
}
