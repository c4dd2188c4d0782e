// Package client is the Go client library for an eventdb streaming
// server (internal/server, served by cmd/eventdbd). It speaks the
// full-duplex line protocol: request/reply commands (Publish,
// PublishBatch, Match, Ping, Stats) multiplex over one TCP connection
// with asynchronously pushed "EVT" lines, which the client routes to
// per-subscription channels.
//
//	c, err := client.Dial("127.0.0.1:7070")
//	if err != nil { ... }
//	defer c.Close()
//
//	sub, err := c.Subscribe("hot", "temp > 30", 64)
//	if err != nil { ... }
//	go func() {
//		for ev := range sub.C {
//			fmt.Println("pushed:", ev)
//		}
//	}()
//	c.Publish(client.NewEvent("reading", map[string]any{"temp": 35}))
//
// Subscribe is ephemeral: a dropped connection loses whatever was in
// flight. DurableSubscribe instead stages matched events in a named,
// server-side durable queue and delivers them with receipts
// (Delivery.Ack / Delivery.Nack) — at-least-once, resumable by
// re-attaching to the same name after a reconnect or server restart,
// with Replay backfilling history from the server's journal. Consume
// is its polling counterpart and QueueStats its introspection.
//
// One goroutine owns the socket's read side and demultiplexes; any
// number of goroutines may issue requests concurrently. The server
// pushes one event to N matching subscriptions of a connection as N
// messages with the same body, and the read loop decodes that body
// once: the *Event a subscription (or a Delivery) hands out may be the
// very one its sibling subscriptions on the same Conn received, so
// treat it as read-only and Clone it before changing anything.
//
// If a pushed event arrives for a subscription whose channel is full,
// the event is dropped client-side and counted (Subscription.Dropped)
// — a slow consumer loses pushes rather than stalling every
// subscription on the connection. Size the channel (or drain faster) to
// taste.
//
// # Wire modes
//
// By default the client speaks the legacy text line protocol, which
// every server version understands. WithBinary negotiates the
// length-prefixed binary frame protocol (HELLO 2, see PROTOCOL.md)
// during Dial — pushed events then skip line formatting and prefix
// scanning on both sides — and WithPark additionally asks the server
// to park the connection's reader goroutine while it idles. Both
// degrade gracefully: against a server that predates HELLO the
// connection silently stays on the text protocol (check Conn.Binary
// when it matters).
//
// # Dial options
//
// Dial is configured with functional options of type Option
// (WithFallbacks, RequireLeader, WithNetDial, WithBinary, WithPark,
// WithSubBuffer).
package client

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"eventdb/internal/cq"
	"eventdb/internal/event"
	"eventdb/internal/frame"
)

// Event is the event record exchanged with the server (an alias of the
// root eventdb package's Event).
type Event = event.Event

// NewEvent builds an event with a fresh ID and the current time.
func NewEvent(typ string, attrs map[string]any) *Event { return event.New(typ, attrs) }

// CQSpec declares a continuous query to attach over the wire: a
// standing filtered, grouped, windowed aggregation evaluated inside
// the server, pushing an updated result whenever the stream changes it.
type CQSpec = cq.Def

// CQAgg is one aggregate output of a CQSpec.
type CQAgg = cq.AggDef

// CQWindow bounds the stream portion a CQSpec aggregates.
type CQWindow = cq.Window

// Aggregate kinds for CQAgg.Kind.
const (
	Count = cq.Count
	Sum   = cq.Sum
	Avg   = cq.Avg
	Min   = cq.Min
	Max   = cq.Max
)

// Window kinds for CQWindow.Kind.
const (
	CountWindow = cq.CountWindow
	TimeWindow  = cq.TimeWindow
)

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("client: connection closed")

// Error is a structured server refusal: Code is a stable token from
// the server's error taxonomy (see ARCHITECTURE.md — "badargs",
// "nosub", "noqueue", "aborted", …) and Msg is the human-readable
// detail, which may change between releases. Branch on Code:
//
//	var serr *client.Error
//	if errors.As(err, &serr) && serr.Code == "aborted" { ... }
type Error struct {
	Code string
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Code == "" {
		return e.Msg
	}
	return e.Code + ": " + e.Msg
}

// knownCodes mirrors the server's taxonomy (internal/server/errors.go)
// so free-text errors from pre-taxonomy servers are never mistaken for
// coded ones.
var knownCodes = map[string]bool{
	"unknown": true, "badargs": true, "badjson": true, "badspec": true,
	"toobig": true, "dup": true, "nosub": true, "noreceipt": true,
	"noqueue": true, "notable": true, "notrig": true, "nowatch": true,
	"nopattern": true,
	"conflict":  true, "aborted": true, "notdurable": true,
	"limit": true, "internal": true, "readonly": true, "degraded": true,
}

// serverError parses the payload of an "ERR " reply line. Replies from
// servers predating the taxonomy (no recognizable code token) keep the
// whole payload as Msg.
func serverError(payload string) *Error {
	code, msg, ok := strings.Cut(payload, " ")
	if !ok || !knownCodes[code] {
		return &Error{Msg: payload}
	}
	return &Error{Code: code, Msg: msg}
}

// Conn is a connection to an eventdb server. Safe for concurrent use.
type Conn struct {
	nc      net.Conn
	binary  bool // negotiated binary frame mode (HELLO 2)
	parked  bool // server granted the park flag
	lowprio bool // server granted the lowprio (sheddable) flag
	subBuf  int  // default subscription channel buffer (WithSubBuffer)

	sendMu  sync.Mutex       // serializes request writes with waiter order
	tr      transport        // guarded by sendMu for sends; recv is readLoop-only
	pending chan chan string // FIFO of reply waiters

	mu        sync.Mutex // guards subs/durables/consumers, closed, err, and channel closes
	subs      map[string]*Subscription
	durables  map[string]*DurableSub
	consumers map[string]chan Delivery // active Consume collectors
	closed    bool
	err       error
	repl      *ReplStream // active replication stream, if any

	done chan struct{} // closed when the connection dies
}

// Option customizes Dial: candidate fallbacks, leader routing, wire
// mode, buffer defaults.
type Option func(*dialConfig)

type dialConfig struct {
	fallbacks     []string
	requireLeader bool
	netDial       func(addr string) (net.Conn, error)
	binary        bool
	park          bool
	lowprio       bool
	subBuffer     int
}

// WithFallbacks adds candidate addresses tried in order after the
// primary, for clusters where any member may answer.
func WithFallbacks(addrs ...string) Option {
	return func(d *dialConfig) { d.fallbacks = append(d.fallbacks, addrs...) }
}

// RequireLeader makes Dial probe each candidate's ROLE and keep only a
// node answering "leader" — so writes land somewhere that accepts them.
// Without it Dial keeps the first node that answers at all.
func RequireLeader() Option {
	return func(d *dialConfig) { d.requireLeader = true }
}

// WithNetDial substitutes the transport dialer (testing, proxies).
func WithNetDial(dial func(addr string) (net.Conn, error)) Option {
	return func(d *dialConfig) { d.netDial = dial }
}

// WithBinary negotiates the binary frame protocol (HELLO 2) during
// Dial. Against a server that predates HELLO the connection silently
// falls back to the text protocol; Conn.Binary reports the outcome.
func WithBinary() Option {
	return func(d *dialConfig) { d.binary = true }
}

// WithPark asks the server to park this connection's reader goroutine
// while the connection idles (implies the HELLO handshake). The server
// grants it only where supported; Conn.Parked reports the outcome.
// Parking is invisible to the API — it only changes what an idle
// connection costs the server.
func WithPark() Option {
	return func(d *dialConfig) { d.park = true }
}

// WithLowPriority declares this connection's publishes sheddable: while
// the server is over an overload watermark they are refused with the
// coded "limit" error instead of blocking, so high-priority producers
// keep their throughput. Implies the HELLO handshake (like WithPark);
// servers that predate the flag silently ignore it.
func WithLowPriority() Option {
	return func(d *dialConfig) { d.lowprio = true }
}

// WithSubBuffer sets the default channel buffer used when Subscribe,
// ContinuousQuery, DurableSubscribe, or Replicate is called with a
// non-positive buffer (instead of their built-in defaults of 64 or
// 256).
func WithSubBuffer(n int) Option {
	return func(d *dialConfig) { d.subBuffer = n }
}

// Dial connects to a server address. With WithFallbacks the addresses
// form a candidate list tried in order; with RequireLeader only a node
// currently serving as leader is kept. The first error per candidate is
// remembered and the last one surfaces if every candidate fails.
func Dial(addr string, opts ...Option) (*Conn, error) {
	var cfg dialConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.netDial == nil {
		cfg.netDial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	candidates := append([]string{addr}, cfg.fallbacks...)
	var lastErr error
	for _, cand := range candidates {
		nc, err := cfg.netDial(cand)
		if err != nil {
			lastErr = fmt.Errorf("client: dial %s: %w", cand, err)
			continue
		}
		c, err := newConn(nc, &cfg)
		if err != nil {
			nc.Close()
			lastErr = fmt.Errorf("client: negotiate %s: %w", cand, err)
			continue
		}
		if cfg.requireLeader {
			role, err := c.Role()
			if err != nil {
				c.Close()
				lastErr = fmt.Errorf("client: role probe %s: %w", cand, err)
				continue
			}
			if role != "leader" {
				c.Close()
				lastErr = fmt.Errorf("client: %s is a %s, not a leader", cand, role)
				continue
			}
		}
		return c, nil
	}
	return nil, lastErr
}

func newConn(nc net.Conn, cfg *dialConfig) (*Conn, error) {
	br := bufio.NewReaderSize(nc, 1<<16)
	w := bufio.NewWriterSize(nc, 1<<16)
	c := &Conn{
		nc:        nc,
		subBuf:    cfg.subBuffer,
		pending:   make(chan chan string, 128),
		subs:      make(map[string]*Subscription),
		durables:  make(map[string]*DurableSub),
		consumers: make(map[string]chan Delivery),
		done:      make(chan struct{}),
	}
	// Mode negotiation happens synchronously, before the read loop owns
	// the socket: one HELLO round trip, only when an option asked for
	// something the legacy protocol lacks.
	if cfg.binary || cfg.park || cfg.lowprio {
		binary, park, lowprio, err := negotiate(nc, br, w, cfg.park, cfg.lowprio)
		if err != nil {
			return nil, err
		}
		c.binary, c.parked, c.lowprio = binary, park, lowprio
	}
	if c.binary {
		c.tr = &binTransport{w: w, fr: frame.NewReader(br)}
	} else {
		c.tr = &textTransport{w: w, br: br}
	}
	go c.readLoop()
	return c, nil
}

// Binary reports whether the connection negotiated the binary frame
// protocol (false means the legacy text protocol, including after a
// silent fallback against an older server).
func (c *Conn) Binary() bool { return c.binary }

// Parked reports whether the server granted the WithPark flag.
func (c *Conn) Parked() bool { return c.parked }

// LowPriority reports whether the server granted the WithLowPriority
// flag (publishes may be shed with "ERR limit" under overload).
func (c *Conn) LowPriority() bool { return c.lowprio }

// Close tears the connection down. Subscription channels close; blocked
// calls fail with ErrClosed.
func (c *Conn) Close() error {
	c.fail(ErrClosed)
	return nil
}

// Done returns a channel closed when the connection dies (socket
// failure or Close). After it closes, Err reports the cause. It is the
// reconnect trigger for supervisors like WithRetry.
func (c *Conn) Done() <-chan struct{} { return c.done }

// Err reports why the connection died (nil while it is alive).
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.err
	}
	return nil
}

// fail marks the connection dead, closes the socket, and closes every
// subscription channel. Idempotent; the first cause wins.
func (c *Conn) fail(cause error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = cause
	for _, s := range c.subs {
		close(s.ch)
	}
	c.subs = map[string]*Subscription{}
	for _, s := range c.durables {
		close(s.ch)
	}
	c.durables = map[string]*DurableSub{}
	if c.repl != nil {
		close(c.repl.ch)
		c.repl = nil
	}
	c.mu.Unlock()
	close(c.done) // wakes reply waiters
	c.nc.Close()
}

// bodyMemo is the read loop's one-entry decode cache: the last pushed
// event body and the event it decoded to. A server renders an event
// once and pushes the same bytes to every subscription it matched
// (PROTOCOL.md §2.2), so the N consecutive pushes of one event to N
// subscriptions of this connection cost one decode and N-1 compares
// that fail on the first differing byte — and, as in-process
// subscribers of the engine already do, all N receive the same *Event.
type bodyMemo struct {
	body []byte
	ev   *Event
}

// maxMemoBody bounds the bytes a memo keeps, so that one huge event is
// not pinned for the life of the connection.
const maxMemoBody = 64 << 10

// decode returns the event body decodes to, nil when it is malformed
// (a malformed push is skipped, never fatal).
func (m *bodyMemo) decode(body []byte) *Event {
	if m.ev != nil && bytes.Equal(body, m.body) {
		return m.ev
	}
	ev, err := event.UnmarshalJSONEvent(body)
	if err != nil || len(body) > maxMemoBody {
		m.ev = nil
		return ev
	}
	m.body, m.ev = append(m.body[:0], body...), ev
	return ev
}

// readLoop owns the socket's read side: the transport decodes inbound
// traffic into wire messages, pushes route to subscription channels,
// and replies resolve the oldest pending waiter (the server replies in
// request order).
func (c *Conn) readLoop() {
	var memo bodyMemo
	for {
		m, err := c.tr.recv()
		if err != nil {
			c.fail(fmt.Errorf("client: read: %w", err))
			return
		}
		switch m.kind {
		case wSkip:
			// A malformed push must not kill the connection.
			continue
		case wEvt:
			ev := memo.decode(m.body)
			if ev == nil {
				continue
			}
			c.mu.Lock()
			if s, ok := c.subs[m.id]; ok {
				select {
				case s.ch <- ev:
				default:
					s.dropped.Add(1)
				}
			}
			c.mu.Unlock()
			continue
		case wQEvt:
			ev := memo.decode(m.body)
			if ev == nil {
				continue
			}
			d := Delivery{Event: ev, Attempt: m.attempt, queue: m.queue, token: m.token, c: c}
			if lsnStr, ok := strings.CutPrefix(m.token, "h"); ok {
				// Historical replay delivery: carries a journal
				// position instead of an ackable receipt.
				if lsn, err := strconv.ParseUint(lsnStr, 10, 64); err == nil {
					d.Historical, d.LSN, d.token = true, lsn, "-"
				}
			}
			c.mu.Lock()
			c.routeDelivery(m.queue, d)
			c.mu.Unlock()
			continue
		}
		line := m.line
		if rest, ok := strings.CutPrefix(line, "REPL "); ok {
			c.routeRepl(rest)
			continue
		}
		select {
		case w := <-c.pending:
			w <- line
		default:
			// An unsolicited ERR is a connection-level refusal (e.g. a
			// full server's "connection limit reached"): surface the
			// server's own message rather than a demux complaint.
			if msg, ok := strings.CutPrefix(line, "ERR "); ok {
				c.fail(fmt.Errorf("client: server refused: %s", msg))
			} else {
				c.fail(fmt.Errorf("client: unsolicited reply %q", line))
			}
			return
		}
	}
}

// call sends one request (plus optional extra body lines, for batches)
// and waits for its single-line reply, with "ERR" replies surfaced as
// errors and the "OK " prefix stripped.
func (c *Conn) call(req string, extra ...string) (string, error) {
	return c.roundTrip(func() error { return c.tr.send(req, extra...) })
}

// roundTrip enqueues a reply waiter, runs one transport write under
// sendMu, and waits for the reply. The waiter is queued before the
// flush: the reply can arrive the moment the bytes hit the wire, and
// the reader must find it pending. The done case keeps a full pending
// queue on a dead connection from wedging the caller (and sendMu)
// forever.
func (c *Conn) roundTrip(send func() error) (string, error) {
	waiter := make(chan string, 1)
	c.sendMu.Lock()
	if err := c.Err(); err != nil {
		c.sendMu.Unlock()
		return "", err
	}
	select {
	case c.pending <- waiter:
	case <-c.done:
		c.sendMu.Unlock()
		return "", c.err
	}
	if err := send(); err != nil {
		c.sendMu.Unlock()
		c.fail(fmt.Errorf("client: write: %w", err))
		return c.settle(waiter)
	}
	c.sendMu.Unlock()
	select {
	case line := <-waiter:
		return reply(line)
	case <-c.done:
		return c.settle(waiter)
	}
}

// settle ends a round trip whose connection died under it. A line the
// reader handed this waiter before it saw the close still wins — a
// server that answers (or refuses: "ERR limit connection limit
// reached") and hangs up at once leaves both the reply and the dead
// connection ready, and a write can find the socket already closed by
// the reader — and otherwise the first cause of death is the error.
func (c *Conn) settle(waiter chan string) (string, error) {
	select {
	case line := <-waiter:
		return reply(line)
	default:
		return "", c.Err()
	}
}

// reply surfaces an "ERR" line as an error and strips the "OK " prefix.
func reply(line string) (string, error) {
	if msg, ok := strings.CutPrefix(line, "ERR "); ok {
		return "", serverError(msg)
	}
	return strings.TrimPrefix(line, "OK "), nil
}

// Role reports whether the server is a "leader" (accepts writes) or a
// read-only replication "follower".
func (c *Conn) Role() (string, error) {
	return c.call("ROLE")
}

// Promote asks a follower to become the leader: it stops replicating,
// re-enables writes, and re-attaches durable queue subscriptions.
// Returns the server's new role ("leader"). On a node that is already
// a leader it is a no-op.
func (c *Conn) Promote() (string, error) {
	return c.call("PROMOTE")
}

// Health is the server's operational snapshot, the parsed form of
// "HEALTH format=json" (PROTOCOL.md §9). Load balancers and
// supervisors branch on Role and Degraded; the rest is diagnostics.
type Health struct {
	Role           string `json:"role"`
	Degraded       bool   `json:"degraded"`
	DegradedCause  string `json:"degraded_cause"`
	Overloaded     bool   `json:"overloaded"`
	OverloadReason string `json:"overload_reason"`
	Durable        bool   `json:"durable"`
	Conns          int    `json:"conns"`
	SlowConsumers  int    `json:"slow_consumers"`
	Evicted        uint64 `json:"evicted"`
	Shed           uint64 `json:"shed"`
	Panics         uint64 `json:"panics"`
	LastApplied    uint64 `json:"last_applied"`
	NextLSN        uint64 `json:"next_lsn"`
	WALLag         uint64 `json:"wal_lag"`
	QueueDepths    []int  `json:"queue_depths"`
	QueueCap       int    `json:"queue_cap"`
	Ingested       uint64 `json:"ingested"`
	Dropped        uint64 `json:"dropped"`
	// Columnar sums the columnar history over all tables; TailRows is
	// the sealer's backlog (rows committed but not yet in a segment),
	// ResidentSegments the sealed segments still in the server's memory
	// (those with a live row) out of the Segments ever sealed.
	Columnar struct {
		Segments         int `json:"segments"`
		SealedRows       int `json:"sealed_rows"`
		TailRows         int `json:"tail_rows"`
		ResidentSegments int `json:"resident_segments"`
	} `json:"columnar"`
	// Runtime is the server process's Go runtime: allocation and
	// collector work since start (divide by an op count for per-op
	// figures), the heap the last collection left live and the goal of
	// the next one, and the goroutine count.
	Runtime struct {
		AllocBytes    uint64  `json:"alloc_bytes"`
		AllocObjects  uint64  `json:"alloc_objects"`
		GCCycles      uint64  `json:"gc_cycles"`
		GCCPUSeconds  float64 `json:"gc_cpu_seconds"`
		HeapLiveBytes uint64  `json:"heap_live_bytes"`
		HeapGoalBytes uint64  `json:"heap_goal_bytes"`
		Goroutines    uint64  `json:"goroutines"`
	} `json:"runtime"`
}

// Health fetches and parses the server's health snapshot.
func (c *Conn) Health() (Health, error) {
	body, err := c.HealthJSON()
	if err != nil {
		return Health{}, err
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		return Health{}, fmt.Errorf("client: bad HEALTH reply: %w", err)
	}
	return h, nil
}

// HealthJSON fetches the health snapshot as the server's raw JSON —
// suitable for forwarding (the gateway's /readyz does exactly that).
func (c *Conn) HealthJSON() ([]byte, error) {
	resp, err := c.call("HEALTH format=json")
	if err != nil {
		return nil, err
	}
	return []byte(resp), nil
}

// Recover asks a degraded server to re-verify its WAL tail and resume
// mutations (the operator path out of fail-stop). On a healthy server
// it is a no-op; while the device still refuses writes it returns the
// coded "degraded" error with the cause.
func (c *Conn) Recover() error {
	_, err := c.call("RECOVER")
	return err
}

// Ping round-trips a liveness check.
func (c *Conn) Ping() error {
	resp, err := c.call("PING")
	if err != nil {
		return err
	}
	if resp != "PONG" {
		return fmt.Errorf("client: unexpected ping reply %q", resp)
	}
	return nil
}

// Publish sends one event for full evaluation, returning the number of
// deliveries it caused (0 when the server ingests through an async
// pipeline, where evaluation happens after the reply).
func (c *Conn) Publish(ev *Event) (int, error) {
	data, err := event.MarshalJSONEvent(ev)
	if err != nil {
		return 0, err
	}
	return c.publishJSON(data)
}

// publishJSON sends one single-line JSON event as a PUB and returns the
// delivery count the server answers with.
func (c *Conn) publishJSON(data []byte) (int, error) {
	resp, err := c.roundTrip(func() error { return c.tr.sendEvent(data) })
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(resp)
	if err != nil {
		return 0, fmt.Errorf("client: bad PUB reply %q", resp)
	}
	return n, nil
}

// PublishRaw publishes one event from its already-marshaled JSON —
// the proxy fast path (the HTTP gateway forwards request bodies
// without decoding them into Events first). The bytes are compacted so
// embedded newlines cannot break wire framing; the server validates
// the event itself.
func (c *Conn) PublishRaw(data []byte) (int, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		return 0, fmt.Errorf("client: bad event json: %w", err)
	}
	return c.publishJSON(buf.Bytes())
}

// PublishT publishes one event under an idempotency token: a session
// name (any token without spaces) and a strictly increasing sequence
// number within it. A republish of an already-ingested sequence — the
// ambiguous-outcome case after a connection died mid-reply — answers
// dup=true instead of duplicating the event. This is the primitive
// Retry's Publish builds on; the session ledger lives on the server
// and survives reconnects.
func (c *Conn) PublishT(session string, seq uint64, ev *Event) (delivered int, dup bool, err error) {
	if strings.ContainsAny(session, " \r\n") || session == "" {
		return 0, false, fmt.Errorf("client: bad session token %q", session)
	}
	data, err := event.MarshalJSONEvent(ev)
	if err != nil {
		return 0, false, err
	}
	resp, err := c.call(fmt.Sprintf("PUBT %s %d %s", session, seq, data))
	if err != nil {
		return 0, false, err
	}
	fields := strings.Fields(resp)
	if len(fields) == 0 {
		return 0, false, fmt.Errorf("client: bad PUBT reply %q", resp)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil {
		return 0, false, fmt.Errorf("client: bad PUBT reply %q", resp)
	}
	return n, len(fields) > 1 && fields[1] == "dup", nil
}

// maxBatch mirrors the server's PUBB cap; larger batches are split
// transparently.
const maxBatch = 65536

// PublishBatch sends a batch of events in one round-trip (one per
// 65536-event chunk for oversized batches); the server ingests each
// chunk as one batch. Returns the number of events accepted.
func (c *Conn) PublishBatch(evs []*Event) (int, error) {
	total := 0
	for len(evs) > 0 {
		chunk := evs
		if len(chunk) > maxBatch {
			chunk = chunk[:maxBatch]
		}
		evs = evs[len(chunk):]
		n, err := c.publishChunk(chunk)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (c *Conn) publishChunk(evs []*Event) (int, error) {
	if len(evs) == 0 {
		return 0, nil
	}
	lines := make([]string, len(evs))
	for i, ev := range evs {
		data, err := event.MarshalJSONEvent(ev)
		if err != nil {
			return 0, fmt.Errorf("client: event %d: %w", i, err)
		}
		lines[i] = string(data)
	}
	resp, err := c.call(fmt.Sprintf("PUBB %d", len(evs)), lines...)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(resp)
	if err != nil {
		return 0, fmt.Errorf("client: bad PUBB reply %q", resp)
	}
	return n, nil
}

// Match asks which subscriptions stored in the server would receive
// the event, without delivering it.
func (c *Conn) Match(ev *Event) ([]string, error) {
	data, err := event.MarshalJSONEvent(ev)
	if err != nil {
		return nil, err
	}
	resp, err := c.call("MATCH " + string(data))
	if err != nil {
		return nil, err
	}
	if resp == "" {
		return nil, nil
	}
	return strings.Split(resp, ","), nil
}

// Subscription is a stream of pushed events. Receive from C; the
// channel closes when the subscription or connection closes.
type Subscription struct {
	// C delivers pushed events (matched events for Subscribe, updated
	// results for ContinuousQuery). An event may be shared with other
	// subscriptions of the same Conn that it also matched: it is
	// read-only (Event.Clone gives a private copy).
	C <-chan *Event

	id      string
	c       *Conn
	ch      chan *Event
	dropped atomic.Uint64
}

// ID returns the subscription's wire id.
func (s *Subscription) ID() string { return s.id }

// Dropped reports pushes discarded client-side because C's buffer was
// full when they arrived.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription from the server and closes C.
func (s *Subscription) Close() error {
	s.c.mu.Lock()
	if _, ok := s.c.subs[s.id]; !ok {
		s.c.mu.Unlock()
		return nil // already closed (or the connection died)
	}
	delete(s.c.subs, s.id)
	close(s.ch)
	s.c.mu.Unlock()
	_, err := s.c.call("UNSUB " + s.id)
	return err
}

// register installs a subscription before its wire command is sent, so
// no push can arrive unrouted, and removes it again if the command is
// refused.
func (c *Conn) register(id string, buffer int, send func() error) (*Subscription, error) {
	if strings.ContainsAny(id, " \r\n") || id == "" {
		return nil, fmt.Errorf("client: bad subscription id %q", id)
	}
	if buffer <= 0 {
		if c.subBuf > 0 {
			buffer = c.subBuf
		} else {
			buffer = 64
		}
	}
	s := &Subscription{id: id, c: c, ch: make(chan *Event, buffer)}
	s.C = s.ch
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, c.err
	}
	_, dupSub := c.subs[id]
	_, dupDur := c.durables[id]
	if dupSub || dupDur {
		c.mu.Unlock()
		return nil, fmt.Errorf("client: subscription %q already exists", id)
	}
	c.subs[id] = s
	c.mu.Unlock()
	if err := send(); err != nil {
		c.mu.Lock()
		if _, ok := c.subs[id]; ok {
			delete(c.subs, id)
			close(s.ch)
		}
		c.mu.Unlock()
		return nil, err
	}
	return s, nil
}

// Subscribe registers a predicate subscription on the server; events
// published on any connection that match filter are pushed to the
// returned Subscription's channel (buffered to buffer, default 64).
// The empty filter matches every event.
func (c *Conn) Subscribe(id, filter string, buffer int) (*Subscription, error) {
	if strings.ContainsAny(filter, "\r\n") {
		// A newline would smuggle extra protocol lines onto the wire.
		return nil, fmt.Errorf("client: filter must not contain newlines")
	}
	return c.register(id, buffer, func() error {
		_, err := c.call(strings.TrimRight("SUB "+id+" "+filter, " "))
		return err
	})
}

// ContinuousQuery attaches a standing windowed aggregation evaluated
// inside the server; each change to its result pushes an updated
// result event (type "cq.<id>") to the returned channel.
func (c *Conn) ContinuousQuery(id string, spec CQSpec, buffer int) (*Subscription, error) {
	spec.Name = id
	data, err := cq.MarshalSpec(spec)
	if err != nil {
		return nil, err
	}
	return c.register(id, buffer, func() error {
		_, err := c.call("CQ " + id + " " + string(data))
		return err
	})
}

// Stats is a snapshot of the server-side state of this connection.
type Stats struct {
	// Sent is the number of lines (replies and pushes) the server has
	// written to this connection.
	Sent uint64
	// Dropped is the number of pushes the server discarded because
	// this connection's outbound queue was full (DropOnFull servers).
	Dropped uint64
	// Queued is the current depth of the server-side outbound queue.
	Queued int
	// Subs, CQs and QSubs count this connection's active
	// subscriptions, continuous queries and durable consumers.
	Subs, CQs, QSubs int
}

// Stats fetches the server-side counters for this connection.
func (c *Conn) Stats() (Stats, error) {
	resp, err := c.call("STATS")
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	for _, field := range strings.Fields(resp) {
		key, v, ok := strings.Cut(field, "=")
		if !ok {
			return Stats{}, fmt.Errorf("client: bad STATS field %q", field)
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return Stats{}, fmt.Errorf("client: bad STATS field %q", field)
		}
		switch key {
		case "sent":
			st.Sent = n
		case "dropped":
			st.Dropped = n
		case "queued":
			st.Queued = int(n)
		case "subs":
			st.Subs = int(n)
		case "cqs":
			st.CQs = int(n)
		case "qsubs":
			st.QSubs = int(n)
		}
	}
	return st, nil
}

// StatsJSON fetches the connection counters as the server's JSON form
// ("STATS format=json") — a single JSON object, raw bytes suitable for
// forwarding to dashboards or HTTP callers without re-encoding.
func (c *Conn) StatsJSON() ([]byte, error) {
	resp, err := c.call("STATS format=json")
	if err != nil {
		return nil, err
	}
	return []byte(resp), nil
}

// QueueStatsJSON fetches a durable queue's state counts as the
// server's JSON form ("QSTATS <name> format=json").
func (c *Conn) QueueStatsJSON(name string) ([]byte, error) {
	resp, err := c.call("QSTATS " + name + " format=json")
	if err != nil {
		return nil, err
	}
	return []byte(resp), nil
}
