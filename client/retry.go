package client

import (
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Retry is a self-healing connection: it owns a Conn, watches it die,
// redials with jittered exponential backoff, and re-registers every
// subscription, continuous query, durable consumer, and pattern on the
// fresh connection — so a server restart, failover, or network blip is
// an interruption, not an outage, from the caller's point of view.
//
//	r, err := client.WithRetry("127.0.0.1:7070", client.RetryPolicy{},
//	          client.WithBinary(), client.WithFallbacks(standby))
//	sub, _ := r.Subscribe("hot", "temp > 30", 64)
//	for ev := range sub.C { ... }   // channel survives reconnects
//
// Subscription channels stay open across reconnects (they close only
// on Retry.Close); events in flight when the connection died are lost
// for ephemeral subscriptions, exactly as the server-side semantics
// say, while durable deliveries come back via the queue's redelivery.
// Publish is idempotent across the ambiguity window: every event goes
// out as PUBT under a per-Retry session token, so an event whose reply
// was lost with the connection is republished on the new one and
// deduplicated server-side ("received ∪ redelivered == published",
// never double-ingest).
//
// The zero RetryPolicy is usable: 8 attempts per operation, 25ms base
// delay doubling to a 2s cap, 50% jitter, unlimited redials.

// RetryPolicy tunes WithRetry's reconnect and per-operation retry
// behavior. The zero value means defaults.
type RetryPolicy struct {
	// MaxAttempts bounds tries per operation (Publish) before giving up
	// with the last error. Default 8. Redialing itself is not bounded:
	// the supervisor keeps trying until Close, since subscriptions must
	// survive outages of unknown length.
	MaxAttempts int
	// BaseDelay is the first backoff step (default 25ms); each further
	// attempt doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 2s).
	MaxDelay time.Duration
	// Jitter is the randomized fraction of each delay, 0..1 (default
	// 0.5): the actual sleep is uniform in [d·(1−Jitter), d], which
	// de-synchronizes a fleet of clients reconnecting after one outage.
	Jitter float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Jitter <= 0 || p.Jitter > 1 {
		p.Jitter = 0.5
	}
	return p
}

// backoff computes the jittered delay before attempt n (0-based).
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.BaseDelay
	for i := 0; i < n && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Uniform in [d·(1−Jitter), d]. rand's global source is
	// goroutine-safe.
	spread := time.Duration(float64(d) * p.Jitter)
	if spread > 0 {
		d -= time.Duration(rand.Int63n(int64(spread) + 1))
	}
	return d
}

// retryReg is one desired registration, replayed onto every fresh
// connection. Exactly one of the kind-specific fields is meaningful.
type retryReg struct {
	id     string
	kind   string // "sub", "cq", "qsub"
	filter string
	spec   CQSpec
	dopts  DurableOptions
	buffer int

	// evCh/dCh are the stable caller-facing channels; inner is the
	// per-incarnation channel handoff to the pump goroutine.
	evCh    chan *Event
	dCh     chan Delivery
	innerEv chan (<-chan *Event)
	innerD  chan (<-chan Delivery)
	stop    chan struct{}

	// cur points at the live inner subscription so Close can detach it
	// (guarded by Retry.mu).
	curSub *Subscription
	curDur *DurableSub
}

// Retry supervises one logical connection. Safe for concurrent use.
type Retry struct {
	addr    string
	opts    []Option
	policy  RetryPolicy
	session string

	mu       sync.Mutex
	cur      *Conn
	closed   bool
	regs     map[string]*retryReg
	patterns map[string]PatternSpec

	pubMu sync.Mutex // serializes Publish so PUBT sequences leave in order
	seq   uint64     // last assigned PUBT sequence (guarded by pubMu)

	reconnects atomic.Uint64
	done       chan struct{}
}

// WithRetry dials addr (with the usual Dial options) and wraps the
// connection in a reconnecting supervisor. The initial dial is
// synchronous so configuration errors surface immediately; after that
// the supervisor owns the connection's lifecycle until Close.
func WithRetry(addr string, policy RetryPolicy, opts ...Option) (*Retry, error) {
	c, err := Dial(addr, opts...)
	if err != nil {
		return nil, err
	}
	var tok [8]byte
	if _, err := crand.Read(tok[:]); err != nil {
		c.Close()
		return nil, fmt.Errorf("client: session token: %w", err)
	}
	r := &Retry{
		addr:     addr,
		opts:     opts,
		policy:   policy.withDefaults(),
		session:  "s" + hex.EncodeToString(tok[:]),
		cur:      c,
		regs:     make(map[string]*retryReg),
		patterns: make(map[string]PatternSpec),
		done:     make(chan struct{}),
	}
	go r.supervise(c)
	return r, nil
}

// Reconnects reports how many times the supervisor has replaced the
// underlying connection.
func (r *Retry) Reconnects() uint64 { return r.reconnects.Load() }

// Conn returns the current underlying connection, or nil while
// disconnected. It may die at any moment; prefer the Retry methods.
func (r *Retry) Conn() *Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// Close shuts the supervisor down: the underlying connection closes,
// every subscription channel closes, and no redial happens.
func (r *Retry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	c := r.cur
	regs := make([]*retryReg, 0, len(r.regs))
	for _, reg := range r.regs {
		regs = append(regs, reg)
	}
	r.mu.Unlock()
	close(r.done)
	for _, reg := range regs {
		close(reg.stop)
	}
	if c != nil {
		c.Close()
	}
	return nil
}

// supervise watches one connection incarnation die, then redials
// forever (with backoff) until Close, replaying registrations onto
// each fresh connection.
func (r *Retry) supervise(c *Conn) {
	for {
		select {
		case <-c.Done():
		case <-r.done:
			return
		}
		r.mu.Lock()
		if r.cur == c {
			r.cur = nil
		}
		r.mu.Unlock()
		nc := r.redial()
		if nc == nil {
			return // closed while disconnected
		}
		c = nc
	}
}

// redial reconnects with jittered exponential backoff, installs the
// fresh connection, and replays the desired registrations. Returns nil
// only when the Retry was closed.
func (r *Retry) redial() *Conn {
	for attempt := 0; ; attempt++ {
		t := time.NewTimer(r.policy.backoff(attempt))
		select {
		case <-t.C:
		case <-r.done:
			t.Stop()
			return nil
		}
		c, err := Dial(r.addr, r.opts...)
		if err != nil {
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			c.Close()
			return nil
		}
		r.cur = c
		r.reconnects.Add(1)
		r.resumeLocked(c)
		r.mu.Unlock()
		return c
	}
}

// resumeLocked replays every desired registration onto a fresh
// connection. Failures are tolerated per registration: a filter the
// server now refuses (or a pattern that persisted server-side and
// answers dup) must not poison the rest; the next reconnect retries.
// Caller holds r.mu.
func (r *Retry) resumeLocked(c *Conn) {
	for name, spec := range r.patterns {
		if err := c.Pattern(name, spec); err != nil {
			var serr *Error
			if !errors.As(err, &serr) || serr.Code != "dup" {
				continue // transport death is caught by the supervisor
			}
		}
	}
	for _, reg := range r.regs {
		r.attachLocked(c, reg)
	}
}

// attachLocked performs one registration on c and hands the resulting
// inner channel to the registration's pump. Caller holds r.mu.
func (r *Retry) attachLocked(c *Conn, reg *retryReg) error {
	switch reg.kind {
	case "sub":
		s, err := c.Subscribe(reg.id, reg.filter, reg.buffer)
		if err != nil {
			return err
		}
		reg.curSub = s
		reg.innerEv <- s.C
	case "cq":
		s, err := c.ContinuousQuery(reg.id, reg.spec, reg.buffer)
		if err != nil {
			return err
		}
		reg.curSub = s
		reg.innerEv <- s.C
	case "qsub":
		s, err := c.DurableSubscribe(reg.id, reg.filter, reg.dopts)
		if err != nil {
			return err
		}
		reg.curDur = s
		reg.innerD <- s.C
	}
	return nil
}

// pumpEvents forwards one registration's per-incarnation channels into
// its stable channel until the registration (or the Retry) closes. An
// inner channel closing means the connection died; the pump just waits
// for the next incarnation.
func (r *Retry) pumpEvents(reg *retryReg) {
	defer close(reg.evCh)
	for {
		var inner <-chan *Event
		select {
		case inner = <-reg.innerEv:
		case <-reg.stop:
			return
		}
		for ev := range inner {
			select {
			case reg.evCh <- ev:
			case <-reg.stop:
				return
			}
		}
	}
}

// pumpDeliveries is pumpEvents for durable deliveries.
func (r *Retry) pumpDeliveries(reg *retryReg) {
	defer close(reg.dCh)
	for {
		var inner <-chan Delivery
		select {
		case inner = <-reg.innerD:
		case <-reg.stop:
			return
		}
		for d := range inner {
			select {
			case reg.dCh <- d:
			case <-reg.stop:
				return
			}
		}
	}
}

// register installs a desired registration, attaches it to the current
// connection when one is live, and starts its pump.
func (r *Retry) register(reg *retryReg) error {
	if strings.ContainsAny(reg.id, " \r\n") || reg.id == "" {
		return fmt.Errorf("client: bad subscription id %q", reg.id)
	}
	if strings.ContainsAny(reg.filter, "\r\n") {
		return fmt.Errorf("client: filter must not contain newlines")
	}
	reg.stop = make(chan struct{})
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if _, dup := r.regs[reg.id]; dup {
		r.mu.Unlock()
		return fmt.Errorf("client: subscription %q already exists", reg.id)
	}
	if c := r.cur; c != nil {
		// Attach first so a refused spec (bad filter, dup on server)
		// surfaces synchronously instead of failing silently on every
		// reconnect.
		if err := r.attachLocked(c, reg); err != nil {
			if c.Err() == nil {
				r.mu.Unlock()
				return err
			}
			// The connection died mid-attach: record the registration;
			// the redial will attach it.
		}
	}
	r.regs[reg.id] = reg
	r.mu.Unlock()
	if reg.kind == "qsub" {
		go r.pumpDeliveries(reg)
	} else {
		go r.pumpEvents(reg)
	}
	return nil
}

// unregister removes a registration and detaches its live incarnation.
func (r *Retry) unregister(id string) error {
	r.mu.Lock()
	reg, ok := r.regs[id]
	if !ok {
		r.mu.Unlock()
		return nil
	}
	delete(r.regs, id)
	curSub, curDur := reg.curSub, reg.curDur
	r.mu.Unlock()
	close(reg.stop)
	var err error
	if curSub != nil {
		err = curSub.Close()
	}
	if curDur != nil {
		err = curDur.Close()
	}
	return err
}

// RetrySub is a subscription whose channel survives reconnects.
type RetrySub struct {
	// C delivers pushed events until the RetrySub (or its Retry) closes.
	C <-chan *Event

	id string
	r  *Retry
}

// ID returns the subscription id.
func (s *RetrySub) ID() string { return s.id }

// Close detaches the subscription (on the live connection, if any) and
// closes C.
func (s *RetrySub) Close() error { return s.r.unregister(s.id) }

// RetryDurable is a durable consumer whose channel survives
// reconnects; unacked deliveries lost with a connection come back as
// redeliveries through the queue's visibility timeout.
type RetryDurable struct {
	// C delivers staged messages until the RetryDurable (or its Retry)
	// closes.
	C <-chan Delivery

	name string
	r    *Retry
}

// Name returns the durable queue name.
func (s *RetryDurable) Name() string { return s.name }

// Close detaches this consumer (the queue and its messages survive
// server-side) and closes C.
func (s *RetryDurable) Close() error { return s.r.unregister(s.name) }

// Subscribe registers a predicate subscription that is automatically
// re-registered on every reconnect. The returned channel stays open
// across reconnects; pushes in flight when a connection dies are lost
// (ephemeral semantics — use DurableSubscribe for loss-free delivery).
func (r *Retry) Subscribe(id, filter string, buffer int) (*RetrySub, error) {
	reg := &retryReg{
		id: id, kind: "sub", filter: filter, buffer: buffer,
		evCh:    make(chan *Event, chanBuf(buffer, 64)),
		innerEv: make(chan (<-chan *Event), 1),
	}
	if err := r.register(reg); err != nil {
		return nil, err
	}
	return &RetrySub{C: reg.evCh, id: id, r: r}, nil
}

// ContinuousQuery attaches a standing aggregation that is re-attached
// on every reconnect. Window state is server-side and restarts empty
// on a server restart; results resume as events arrive.
func (r *Retry) ContinuousQuery(id string, spec CQSpec, buffer int) (*RetrySub, error) {
	reg := &retryReg{
		id: id, kind: "cq", spec: spec, buffer: buffer,
		evCh:    make(chan *Event, chanBuf(buffer, 64)),
		innerEv: make(chan (<-chan *Event), 1),
	}
	if err := r.register(reg); err != nil {
		return nil, err
	}
	return &RetrySub{C: reg.evCh, id: id, r: r}, nil
}

// DurableSubscribe attaches to a named durable queue and re-attaches
// on every reconnect: deliveries that were in flight when a connection
// died return via the server's visibility timeout, preserving
// at-least-once end to end.
func (r *Retry) DurableSubscribe(name, filter string, opts DurableOptions) (*RetryDurable, error) {
	reg := &retryReg{
		id: name, kind: "qsub", filter: filter, dopts: opts,
		dCh:    make(chan Delivery, chanBuf(opts.Buffer, 256)),
		innerD: make(chan (<-chan Delivery), 1),
	}
	if err := r.register(reg); err != nil {
		return nil, err
	}
	return &RetryDurable{C: reg.dCh, name: name, r: r}, nil
}

// Pattern registers a composite-event pattern and re-registers it on
// every reconnect ("dup" answers — the pattern persisted server-side —
// count as success).
func (r *Retry) Pattern(name string, spec PatternSpec) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	c := r.cur
	r.patterns[name] = spec
	r.mu.Unlock()
	if c == nil {
		return nil // registered on reconnect
	}
	err := c.Pattern(name, spec)
	var serr *Error
	if err != nil && errors.As(err, &serr) && serr.Code == "dup" {
		return nil
	}
	if err != nil && c.Err() != nil {
		return nil // connection died mid-call; redial replays it
	}
	if err != nil {
		r.mu.Lock()
		delete(r.patterns, name)
		r.mu.Unlock()
	}
	return err
}

// Unpattern removes a pattern from the desired state and the server.
func (r *Retry) Unpattern(name string) error {
	r.mu.Lock()
	delete(r.patterns, name)
	c := r.cur
	r.mu.Unlock()
	if c == nil {
		return nil
	}
	return c.Unpattern(name)
}

// Publish publishes one event at-least-once-with-dedup: it is sent as
// PUBT under the Retry's session token, so a republish after a
// connection died mid-reply is recognized server-side and not ingested
// twice. Publishes are serialized (the session's sequence numbers must
// reach the server in order); definitive refusals (bad JSON, shed,
// readonly) are returned immediately, while transport failures and
// "degraded" answers retry with backoff up to MaxAttempts.
func (r *Retry) Publish(ev *Event) (int, error) {
	r.pubMu.Lock()
	defer r.pubMu.Unlock()
	r.seq++
	seq := r.seq
	var lastErr error
	for attempt := 0; attempt < r.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(r.policy.backoff(attempt - 1))
			select {
			case <-t.C:
			case <-r.done:
				t.Stop()
				return 0, ErrClosed
			}
		}
		r.mu.Lock()
		c, closed := r.cur, r.closed
		r.mu.Unlock()
		if closed {
			return 0, ErrClosed
		}
		if c == nil {
			lastErr = errors.New("client: disconnected, reconnect in progress")
			continue
		}
		n, _, err := c.PublishT(r.session, seq, ev)
		if err == nil {
			return n, nil
		}
		lastErr = err
		var serr *Error
		if errors.As(err, &serr) && serr.Code != "degraded" && serr.Code != "internal" {
			// A definitive, coded refusal: retrying cannot change it.
			return 0, err
		}
	}
	return 0, fmt.Errorf("client: publish gave up after %d attempts: %w", r.policy.MaxAttempts, lastErr)
}

// Health fetches the current server's health snapshot (no retry — a
// health probe wants the truth now, not after a backoff).
func (r *Retry) Health() (Health, error) {
	r.mu.Lock()
	c := r.cur
	r.mu.Unlock()
	if c == nil {
		return Health{}, errors.New("client: disconnected")
	}
	return c.Health()
}

func chanBuf(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}
