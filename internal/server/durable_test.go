package server

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/queue"
)

// raw is a bare protocol connection for tests that need to see wire
// framing (receipts, interleaving) below the client library.
type raw struct {
	t      *testing.T
	nc     net.Conn
	br     *bufio.Reader
	pushes []string // QEVT/EVT/REPL lines read while waiting for a reply
}

func rawDial(t *testing.T, srv *Server) *raw {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &raw{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (r *raw) send(line string) {
	r.t.Helper()
	if _, err := fmt.Fprintf(r.nc, "%s\n", line); err != nil {
		r.t.Fatalf("send %q: %v", line, err)
	}
}

func (r *raw) readLine() string {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := r.br.ReadString('\n')
	if err != nil {
		r.t.Fatalf("read: %v", err)
	}
	return strings.TrimRight(line, "\n")
}

// reply returns the next command reply, stashing pushed lines aside.
func (r *raw) reply() string {
	r.t.Helper()
	for {
		line := r.readLine()
		if strings.HasPrefix(line, "QEVT ") || strings.HasPrefix(line, "EVT ") || strings.HasPrefix(line, "REPL ") {
			r.pushes = append(r.pushes, line)
			continue
		}
		return line
	}
}

// ask sends a command and returns its reply.
func (r *raw) ask(req string) string {
	r.t.Helper()
	r.send(req)
	return r.reply()
}

func (r *raw) mustOK(req string) string {
	r.t.Helper()
	resp := r.ask(req)
	if !strings.HasPrefix(resp, "OK") {
		r.t.Fatalf("%s → %q", req, resp)
	}
	return strings.TrimPrefix(strings.TrimPrefix(resp, "OK"), " ")
}

// qevt describes one parsed durable delivery line.
type qevt struct {
	queue   string
	token   string
	attempt int
	ev      *event.Event
}

// nextQEVT returns the next pushed QEVT line (buffered or read).
func (r *raw) nextQEVT() qevt {
	r.t.Helper()
	var line string
	for line == "" {
		if len(r.pushes) > 0 {
			line = r.pushes[0]
			r.pushes = r.pushes[1:]
			break
		}
		l := r.readLine()
		if !strings.HasPrefix(l, "QEVT ") {
			r.t.Fatalf("expected QEVT line, got %q", l)
		}
		line = l
	}
	parts := strings.SplitN(line, " ", 5)
	if len(parts) != 5 {
		r.t.Fatalf("malformed QEVT line %q", line)
	}
	attempt, err := strconv.Atoi(parts[3])
	if err != nil {
		r.t.Fatalf("bad attempt in %q: %v", line, err)
	}
	ev, err := event.UnmarshalJSONEvent([]byte(parts[4]))
	if err != nil {
		r.t.Fatalf("bad event in %q: %v", line, err)
	}
	return qevt{queue: parts[1], token: parts[2], attempt: attempt, ev: ev}
}

// expectQuiet asserts no line arrives within d.
func (r *raw) expectQuiet(d time.Duration) {
	r.t.Helper()
	if len(r.pushes) > 0 {
		r.t.Fatalf("unexpected buffered push %q", r.pushes[0])
	}
	r.nc.SetReadDeadline(time.Now().Add(d))
	line, err := r.br.ReadString('\n')
	if err == nil {
		r.t.Fatalf("expected quiet, got %q", line)
	}
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		r.t.Fatalf("expected timeout, got %v", err)
	}
}

func attrN(t *testing.T, ev *event.Event) int {
	t.Helper()
	v, ok := ev.Get("n")
	if !ok {
		t.Fatalf("event %v has no n", ev)
	}
	n, _ := v.AsInt()
	return int(n)
}

func TestQSubDurableDeliveryAndAck(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	sub := rawDial(t, srv)
	sub.mustOK("QSUB orders manual sym = 'A'")

	pub := dial(t, srv)
	for i := 0; i < 3; i++ {
		if _, err := pub.Publish(client.NewEvent("trade", map[string]any{"sym": "A", "n": i})); err != nil {
			t.Fatal(err)
		}
	}
	// Non-matching events stay out of the queue.
	if _, err := pub.Publish(client.NewEvent("trade", map[string]any{"sym": "Z", "n": 99})); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		d := sub.nextQEVT()
		if d.queue != "orders" || d.attempt != 1 || d.token == "-" {
			t.Fatalf("delivery = %+v", d)
		}
		seen[attrN(t, d.ev)] = true
		sub.mustOK("ACK orders " + d.token)
	}
	for i := 0; i < 3; i++ {
		if !seen[i] {
			t.Errorf("event %d not delivered", i)
		}
	}
	if got := sub.mustOK("QSTATS orders"); got != "ready=0 inflight=0 dead=0 outstanding=0" {
		t.Errorf("QSTATS = %q", got)
	}
	// Acked receipts are spent.
	if resp := sub.ask("ACK orders 1-1"); !strings.HasPrefix(resp, "ERR") {
		t.Errorf("double ack → %q", resp)
	}
}

func TestQSubUnackedRedeliverOnReconnect(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	c1 := rawDial(t, srv)
	c1.mustOK("QSUB orders manual ")

	pub := dial(t, srv)
	for i := 0; i < 3; i++ {
		if _, err := pub.Publish(client.NewEvent("e", map[string]any{"n": i})); err != nil {
			t.Fatal(err)
		}
	}
	// Receive all three, ack only the first, then vanish.
	first := c1.nextQEVT()
	c1.mustOK("ACK orders " + first.token)
	got1 := map[int]bool{attrN(t, first.ev): true}
	for i := 0; i < 2; i++ {
		got1[attrN(t, c1.nextQEVT().ev)] = true
	}
	if len(got1) != 3 {
		t.Fatalf("first consumer saw %v", got1)
	}
	c1.nc.Close()

	// The reconnecting consumer gets exactly the two unacked messages
	// back, promptly (teardown released them; no visibility timeout
	// wait). Release rolls the attempt back — a vanished connection is
	// not a processing failure, so reconnect cycles can never exhaust
	// the MaxAttempts budget.
	c2 := rawDial(t, srv)
	c2.mustOK("QSUB orders manual ")
	redelivered := map[int]bool{}
	for i := 0; i < 2; i++ {
		d := c2.nextQEVT()
		if d.attempt != 1 {
			t.Errorf("released redelivery attempt = %d, want 1", d.attempt)
		}
		redelivered[attrN(t, d.ev)] = true
		c2.mustOK("ACK orders " + d.token)
	}
	if redelivered[attrN(t, first.ev)] {
		t.Error("acked message was redelivered")
	}
	// received ∪ redelivered == published, and nothing is left.
	for n := range got1 {
		if n != attrN(t, first.ev) && !redelivered[n] {
			t.Errorf("event %d lost", n)
		}
	}
	if got := c2.mustOK("QSTATS orders"); got != "ready=0 inflight=0 dead=0 outstanding=0" {
		t.Errorf("QSTATS = %q", got)
	}
}

func TestQSubAutoAck(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	sub := rawDial(t, srv)
	sub.mustOK("QSUB fire auto ")
	pub := dial(t, srv)
	for i := 0; i < 3; i++ {
		if _, err := pub.Publish(client.NewEvent("e", map[string]any{"n": i})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		d := sub.nextQEVT()
		if d.token != "-" {
			t.Errorf("auto-ack delivery carries receipt %q", d.token)
		}
	}
	// Server-side ack: the queue drains without any ACK from us.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := sub.mustOK("QSTATS fire"); got == "ready=0 inflight=0 dead=0 outstanding=0" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: %q", sub.mustOK("QSTATS fire"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestConsumePullMode(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{})
	// Stage directly: CONSUME must work without a QSUB on this
	// connection.
	q, err := eng.EnsureQueue("jobs", queue.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := q.Enqueue(event.New("job", map[string]any{"n": i}), queue.EnqueueOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	c := rawDial(t, srv)
	if got := c.mustOK("CONSUME jobs 3"); got != "3" {
		t.Fatalf("CONSUME → %q", got)
	}
	for i := 0; i < 3; i++ {
		d := c.nextQEVT()
		c.mustOK("ACK jobs " + d.token)
	}
	// NACK with delay: the message comes back after the delay.
	if got := c.mustOK("CONSUME jobs 10"); got != "2" {
		t.Fatalf("second CONSUME → %q", got)
	}
	d1, d2 := c.nextQEVT(), c.nextQEVT()
	c.mustOK("NACK jobs " + d1.token + " 0")
	c.mustOK("ACK jobs " + d2.token)
	if got := c.mustOK("CONSUME jobs 10"); got != "1" {
		t.Fatalf("post-NACK CONSUME → %q", got)
	}
	d := c.nextQEVT()
	if d.attempt != 2 {
		t.Errorf("nacked redelivery attempt = %d", d.attempt)
	}
	c.mustOK("ACK jobs " + d.token)
	// Errors carry their stable taxonomy code: unknown queue, bad max,
	// unknown receipt, bad ack mode.
	for req, want := range map[string]string{
		"CONSUME nope 5":  "ERR noqueue ",
		"CONSUME jobs 0":  "ERR badargs ",
		"ACK jobs 99-1":   "ERR noreceipt ",
		"NACK jobs 1-1 x": "ERR badargs ",
		"QSTATS nope":     "ERR noqueue ",
		"QSUB bad wat f":  "ERR badargs ",
	} {
		if resp := c.ask(req); !strings.HasPrefix(resp, want) {
			t.Errorf("%s → %q, want prefix %q", req, resp, want)
		}
	}
}

func TestQSubPrefetchPausesDelivery(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{QueuePrefetch: 2})
	sub := rawDial(t, srv)
	sub.mustOK("QSUB orders manual ")
	pub := dial(t, srv)
	for i := 0; i < 5; i++ {
		if _, err := pub.Publish(client.NewEvent("e", map[string]any{"n": i})); err != nil {
			t.Fatal(err)
		}
	}
	d1, d2 := sub.nextQEVT(), sub.nextQEVT()
	// Two unacked deliveries = the prefetch limit: the consumer must
	// pause rather than run ahead.
	sub.expectQuiet(400 * time.Millisecond)
	sub.mustOK("ACK orders " + d1.token)
	d3 := sub.nextQEVT()
	sub.mustOK("ACK orders " + d2.token)
	sub.mustOK("ACK orders " + d3.token)
	sub.nextQEVT()
	sub.nextQEVT()
}

func TestReplayBackfillsHistory(t *testing.T) {
	_, srv := startServer(t, core.Config{Dir: t.TempDir()}, Config{})
	sub := rawDial(t, srv)
	sub.mustOK("QSUB trades manual price > 10")
	pub := dial(t, srv)
	want := 0
	for i := 0; i < 6; i++ {
		price := float64(i * 5) // 0,5,10 filtered out; 15,20,25 staged
		if price > 10 {
			want++
		}
		if _, err := pub.Publish(client.NewEvent("trade", map[string]any{"price": price, "n": i})); err != nil {
			t.Fatal(err)
		}
	}
	// Live consumption acks (deletes) everything.
	for i := 0; i < want; i++ {
		d := sub.nextQEVT()
		sub.mustOK("ACK trades " + d.token)
	}
	// Replay still sees the full staged history out of the WAL.
	resp := sub.mustOK("REPLAY trades 0")
	fields := strings.Fields(resp)
	if len(fields) != 2 {
		t.Fatalf("REPLAY reply %q", resp)
	}
	if n, _ := strconv.Atoi(fields[0]); n != want {
		t.Fatalf("replayed %s, want %d", fields[0], want)
	}
	nextLSN, _ := strconv.ParseUint(fields[1], 10, 64)
	for i := 0; i < want; i++ {
		d := sub.nextQEVT()
		if !strings.HasPrefix(d.token, "h") || d.attempt != 0 {
			t.Errorf("historical delivery = %+v", d)
		}
		if d.ev.Type != "trade" {
			t.Errorf("replayed type %q, want original event", d.ev.Type)
		}
		// Historical receipts are not ackable.
		if resp := sub.ask("ACK trades " + d.token); !strings.HasPrefix(resp, "ERR") {
			t.Errorf("ack of historical receipt → %q", resp)
		}
	}
	// Resume from nextLSN: nothing new.
	if got := sub.mustOK(fmt.Sprintf("REPLAY trades %d", nextLSN)); !strings.HasPrefix(got, "0 ") {
		t.Errorf("resumed replay → %q", got)
	}
}

func TestReplayOnVolatileEngineErrors(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	c := rawDial(t, srv)
	c.mustOK("QSUB q manual ")
	if resp := c.ask("REPLAY q 0"); !strings.HasPrefix(resp, "ERR") {
		t.Errorf("REPLAY on volatile engine → %q", resp)
	}
}

func TestStatsCountsSinkKinds(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	c := rawDial(t, srv)
	c.mustOK("SUB s1 price > 1")
	c.mustOK(`CQ c1 {"aggs":[{"alias":"n","kind":"count"}],"window":{"kind":"count","size":8}}`)
	c.mustOK("QSUB q1 manual ")
	if got := c.mustOK("STATS"); !strings.HasSuffix(got, "subs=1 cqs=1 qsubs=1") {
		t.Errorf("STATS = %q", got)
	}
	// UNSUB detaches any sink kind through the same lifecycle.
	for _, id := range []string{"s1", "c1", "q1"} {
		c.mustOK("UNSUB " + id)
	}
	if got := c.mustOK("STATS"); !strings.HasSuffix(got, "subs=0 cqs=0 qsubs=0") {
		t.Errorf("STATS after UNSUB = %q", got)
	}
}

// flakyListener always fails Accept with a transient error until
// closed — the EMFILE regime that drives the accept loop's backoff.
type flakyListener struct {
	mu     sync.Mutex
	closed bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, net.ErrClosed
	}
	return nil, fmt.Errorf("accept: transient failure")
}

func (l *flakyListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

func (l *flakyListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

// TestCloseDuringAcceptBackoff is the regression test for shutdown
// latency: Close during an accept-error backoff must return promptly
// instead of waiting out a sleep that can reach one second.
func TestCloseDuringAcceptBackoff(t *testing.T) {
	eng, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := serve(eng, &flakyListener{}, Config{})
	// Let the backoff escalate: after ~400ms of immediate accept
	// failures the loop is inside a 320ms+ wait.
	time.Sleep(400 * time.Millisecond)
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Fatalf("Close took %v during accept backoff", el)
	}
}

// TestQSubBadRebindKeepsBinding: a rebind attempt with an invalid
// filter must be refused without tearing down the live binding other
// consumers depend on.
func TestQSubBadRebindKeepsBinding(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{})
	c1 := rawDial(t, srv)
	c1.mustOK("QSUB orders manual total >= 50")
	c2 := rawDial(t, srv)
	if resp := c2.ask("QSUB orders manual total >>>= borked"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("invalid rebind → %q", resp)
	}
	if f, ok := eng.Broker.FilterOf("qsub.orders"); !ok || f != "total >= 50" {
		t.Fatalf("binding after failed rebind = %q, %v; want the original intact", f, ok)
	}
	// The original consumer still receives.
	pub := dial(t, srv)
	if _, err := pub.Publish(client.NewEvent("order", map[string]any{"total": 60})); err != nil {
		t.Fatal(err)
	}
	d := c1.nextQEVT()
	c1.mustOK("ACK orders " + d.token)
}

func TestConsumeMaxCapped(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{})
	if _, err := eng.EnsureQueue("jobs", queue.Config{}); err != nil {
		t.Fatal(err)
	}
	c := rawDial(t, srv)
	if resp := c.ask("CONSUME jobs 2000000000"); !strings.HasPrefix(resp, "ERR toobig ") {
		t.Fatalf("oversized CONSUME → %q", resp)
	}
}

// TestPoisonMessageDeadLettersInsteadOfLooping: a staged message whose
// event cannot be JSON-marshaled must burn its attempts and
// dead-letter — the Release-and-retry alternative spins the consumer
// on the same message forever.
func TestPoisonMessageDeadLettersInsteadOfLooping(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{Queue: queue.Config{MaxAttempts: 2}})
	q, err := eng.EnsureQueue("jobs", queue.Config{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	poison := event.New("job", map[string]any{"bad": math.NaN()})
	if _, err := q.Enqueue(poison, queue.EnqueueOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue(event.New("job", map[string]any{"n": 1}), queue.EnqueueOptions{}); err != nil {
		t.Fatal(err)
	}
	c := rawDial(t, srv)
	// CONSUME must terminate (old behavior: infinite loop on the
	// poison head) and still deliver the healthy message.
	if got := c.mustOK("CONSUME jobs 10"); got != "1" {
		t.Fatalf("CONSUME → %q, want the one deliverable message", got)
	}
	d := c.nextQEVT()
	c.mustOK("ACK jobs " + d.token)
	st := q.Stats()
	if st.Dead != 1 || st.Ready != 0 || st.Inflight != 0 {
		t.Fatalf("stats = %+v, want the poison message dead-lettered", st)
	}
}

// TestStaleReceiptEvictionUnparksConsumer: deliveries the client drops
// without acking must not leak prefetch slots forever — once their
// visibility deadline passes, the ledger evicts them and delivery
// resumes.
func TestStaleReceiptEvictionUnparksConsumer(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{
		QueuePrefetch: 1,
		Queue:         queue.Config{VisibilityTimeout: 200 * time.Millisecond},
	})
	sub := rawDial(t, srv)
	sub.mustOK("QSUB orders manual ")
	pub := dial(t, srv)
	for i := 0; i < 2; i++ {
		if _, err := pub.Publish(client.NewEvent("e", map[string]any{"n": i})); err != nil {
			t.Fatal(err)
		}
	}
	// Take the first delivery and "drop" it (never ack): the consumer
	// is parked at prefetch=1 with a receipt no one will settle.
	first := sub.nextQEVT()
	// Without stale-receipt eviction this read would hang forever; with
	// it, the expired receipt is swept and both messages redeliver.
	seen := map[int]int{}
	for len(seen) < 2 {
		d := sub.nextQEVT()
		seen[attrN(t, d.ev)]++
		sub.mustOK("ACK orders " + d.token)
	}
	if _, ok := seen[attrN(t, first.ev)]; !ok {
		t.Error("dropped delivery never redelivered")
	}
}

// TestUnsubPreservesConsumeReceipts: detaching a QSUB must release
// only the deliveries that sink pushed — receipts the same connection
// obtained via CONSUME stay ackable.
func TestUnsubPreservesConsumeReceipts(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{})
	q, err := eng.EnsureQueue("jobs", queue.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue(event.New("job", map[string]any{"n": 1}), queue.EnqueueOptions{}); err != nil {
		t.Fatal(err)
	}
	c := rawDial(t, srv)
	if got := c.mustOK("CONSUME jobs 1"); got != "1" {
		t.Fatalf("CONSUME → %q", got)
	}
	pulled := c.nextQEVT()
	// Attach and drop a push consumer on the same queue.
	c.mustOK("QSUB jobs manual ")
	c.mustOK("UNSUB jobs")
	// The pulled delivery is still ours to settle.
	c.mustOK("ACK jobs " + pulled.token)
	if st := q.Stats(); st.Ready != 0 || st.Inflight != 0 {
		t.Fatalf("stats after ack = %+v", st)
	}
}
