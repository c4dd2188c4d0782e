package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/pubsub"
)

func startServer(t *testing.T, engCfg core.Config, srvCfg Config) (*core.Engine, *Server) {
	t.Helper()
	eng, err := core.Open(engCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv, err := StartConfig(eng, "127.0.0.1:0", srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return eng, srv
}

func dial(t *testing.T, srv *Server) *client.Conn {
	t.Helper()
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// recv waits for one pushed event with a timeout.
func recv(t *testing.T, sub *client.Subscription) *client.Event {
	t.Helper()
	select {
	case ev, ok := <-sub.C:
		if !ok {
			t.Fatal("subscription channel closed")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for pushed event")
	}
	return nil
}

func TestPing(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	c := dial(t, srv)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestPublishOverWire(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{})
	c := dial(t, srv)
	var mu sync.Mutex
	delivered := 0
	eng.Subscribe("s", "ops", "sev >= 2", func(pubsub.Delivery) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})

	n, err := c.Publish(event.New("alarm", map[string]any{"sev": 3}))
	if err != nil || n != 1 {
		t.Fatalf("publish: n=%d err=%v", n, err)
	}
	n, err = c.Publish(event.New("alarm", map[string]any{"sev": 1}))
	if err != nil || n != 0 {
		t.Fatalf("filtered publish: n=%d err=%v", n, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered != 1 {
		t.Errorf("delivered = %d", delivered)
	}
	if eng.Ingested() != 2 {
		t.Errorf("ingested = %d", eng.Ingested())
	}
}

func TestMatchOverWire(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{})
	c := dial(t, srv)
	eng.Subscribe("hot", "ops", "temp > 30", func(pubsub.Delivery) {
		t.Error("MATCH must not deliver")
	})
	ids, err := c.Match(event.New("reading", map[string]any{"temp": 40}))
	if err != nil || len(ids) != 1 || ids[0] != "hot" {
		t.Fatalf("match: %v %v", ids, err)
	}
	ids, err = c.Match(event.New("reading", map[string]any{"temp": 10}))
	if err != nil || len(ids) != 0 {
		t.Fatalf("non-match: %v %v", ids, err)
	}
}

// TestStreamingPush is the protocol's point: a subscriber on one
// connection receives events published on a different connection.
func TestStreamingPush(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	subConn := dial(t, srv)
	pubConn := dial(t, srv)

	sub, err := subConn.Subscribe("hot", "temp > 30", 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pubConn.Publish(event.New("reading", map[string]any{"temp": 17})); err != nil {
		t.Fatal(err)
	}
	if _, err := pubConn.Publish(event.New("reading", map[string]any{"temp": 35, "site": "a"})); err != nil {
		t.Fatal(err)
	}
	ev := recv(t, sub)
	if v, _ := ev.Get("temp"); v.String() != "35" {
		t.Errorf("pushed event = %v", ev)
	}
	if v, _ := ev.Get("site"); v.String() != `"a"` && v.String() != "a" {
		t.Errorf("pushed attrs lost: %v", ev)
	}
	select {
	case ev := <-sub.C:
		t.Errorf("unexpected extra push %v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestPublishBatchOverWire(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{})
	c := dial(t, srv)
	evs := make([]*client.Event, 100)
	for i := range evs {
		evs[i] = event.New(fmt.Sprintf("t%d", i%5), map[string]any{"i": i})
	}
	n, err := c.PublishBatch(evs)
	if err != nil || n != 100 {
		t.Fatalf("batch: n=%d err=%v", n, err)
	}
	if got := eng.Ingested(); got != 100 {
		t.Errorf("ingested = %d", got)
	}
}

func TestContinuousQueryOverWire(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	subConn := dial(t, srv)
	pubConn := dial(t, srv)

	sub, err := subConn.ContinuousQuery("vwap", client.CQSpec{
		Filter:  "sym = 'ACME'",
		GroupBy: []string{"sym"},
		Aggs: []client.CQAgg{
			{Alias: "n", Kind: client.Count},
			{Alias: "avg_px", Kind: client.Avg, Attr: "price"},
		},
		Window: client.CQWindow{Kind: client.CountWindow, Size: 10},
	}, 16)
	if err != nil {
		t.Fatal(err)
	}
	// A non-matching event produces no update.
	pubConn.Publish(event.New("trade", map[string]any{"sym": "OTHER", "price": 1.0}))
	for i, px := range []float64{10, 20} {
		if _, err := pubConn.Publish(event.New("trade", map[string]any{"sym": "ACME", "price": px})); err != nil {
			t.Fatal(err)
		}
		up := recv(t, sub)
		if up.Type != "cq.vwap" {
			t.Fatalf("update type = %q", up.Type)
		}
		if v, _ := up.Get("n"); v.String() != fmt.Sprint(i+1) {
			t.Errorf("update %d: n = %v", i, v)
		}
	}
	if v, _ := recvLast(sub); v != nil {
		t.Errorf("unexpected extra update %v", v)
	}
}

// recvLast drains any immediately available pushed event.
func recvLast(sub *client.Subscription) (*client.Event, bool) {
	select {
	case ev := <-sub.C:
		return ev, true
	case <-time.After(50 * time.Millisecond):
		return nil, false
	}
}

func TestUnsubscribeStopsPushes(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	subConn := dial(t, srv)
	pubConn := dial(t, srv)
	sub, err := subConn.Subscribe("all", "", 16)
	if err != nil {
		t.Fatal(err)
	}
	pubConn.Publish(event.New("e", map[string]any{"i": 1}))
	recv(t, sub)
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pubConn.Publish(event.New("e", map[string]any{"i": 2})); err != nil {
		t.Fatal(err)
	}
	// The server no longer pushes; a fresh subscription still works and
	// sees only new events.
	sub2, err := subConn.Subscribe("all", "", 16)
	if err != nil {
		t.Fatal(err)
	}
	pubConn.Publish(event.New("e", map[string]any{"i": 3}))
	ev := recv(t, sub2)
	if v, _ := ev.Get("i"); v.String() != "3" {
		t.Errorf("resubscribe saw %v", ev)
	}
}

func TestStats(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	c := dial(t, srv)
	if _, err := c.Subscribe("a", "", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ContinuousQuery("q", client.CQSpec{
		Aggs:   []client.CQAgg{{Alias: "n", Kind: client.Count}},
		Window: client.CQWindow{Kind: client.CountWindow, Size: 5},
	}, 4); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Subs != 1 || st.CQs != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Sent < 2 { // at least the two OK replies
		t.Errorf("sent = %d", st.Sent)
	}
}

func TestProtocolErrors(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	c := dial(t, srv)
	if _, err := c.Subscribe("s", "not a ( valid filter", 4); err == nil {
		t.Error("bad filter accepted")
	}
	if _, err := c.Subscribe("ok", "", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("ok", "", 4); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := c.ContinuousQuery("cq1", client.CQSpec{}, 4); err == nil {
		t.Error("empty CQ spec accepted")
	}
	// Connection still usable after errors.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestRawProtocolErrors(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	ask := func(req string) string {
		t.Helper()
		fmt.Fprintf(nc, "%s\n", req)
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: %v", req, err)
		}
		return strings.TrimRight(line, "\n")
	}
	// Every error reply is "ERR <code> <message>" with a stable code
	// from the taxonomy in errors.go.
	for req, wantPrefix := range map[string]string{
		"PUB {not json":   "ERR badjson ",
		"BOGUS":           "ERR unknown ",
		"SUB":             "ERR badargs ",
		"UNSUB nope":      "ERR nosub ",
		"CQ x":            "ERR badargs ",
		"PUBB 0":          "ERR toobig ",
		"PING extra junk": "ERR badargs ",
		"INSERT nope {}":  "ERR notable ",
		"UNTRIG nope":     "ERR notrig ",
		"UNWATCH nope":    "ERR nowatch ",
		"PING":            "PONG",
	} {
		if got := ask(req); !strings.HasPrefix(got, wantPrefix) {
			t.Errorf("%s → %q, want prefix %q", req, got, wantPrefix)
		}
	}
	// An unparseable PUBB count must drop the connection (framing lost).
	fmt.Fprintf(nc, "PUBB garbage\n")
	if line, _ := br.ReadString('\n'); !strings.HasPrefix(line, "ERR badargs ") {
		t.Errorf("PUBB garbage → %q", line)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadString('\n'); err == nil {
		t.Error("connection survived framing loss")
	}
}

func TestMaxConns(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{MaxConns: 2})
	c1, c2 := dial(t, srv), dial(t, srv)
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
	c3, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err) // TCP accept succeeds; refusal arrives as a protocol error
	}
	defer c3.Close()
	if err := c3.Ping(); err == nil || !strings.Contains(err.Error(), "connection limit") {
		t.Errorf("over-limit ping err = %v", err)
	}
	// Freeing a slot admits a new connection.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.ConnCount() >= 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c4 := dial(t, srv)
	if err := c4.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFanout is the exact-delivery concurrency check: N
// publisher connections × M subscriber connections, every subscriber
// sees every event exactly once, ordered per connection, no drops.
func TestConcurrentFanout(t *testing.T) {
	const (
		publishers   = 4
		subscribers  = 3
		perPublisher = 200
	)
	total := publishers * perPublisher
	_, srv := startServer(t, core.Config{}, Config{SubBuffer: 64})

	subs := make([]*client.Subscription, subscribers)
	for i := range subs {
		c := dial(t, srv)
		s, err := c.Subscribe("fan", "kind = 'load'", total+8)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < perPublisher; i += 50 {
				batch := make([]*client.Event, 50)
				for j := range batch {
					batch[j] = event.New("e", map[string]any{"kind": "load", "p": p, "i": i + j})
				}
				if _, err := c.PublishBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()

	// All publishes evaluated synchronously before their replies, so a
	// sentinel published now is the last matching event in every stream.
	sentinelConn := dial(t, srv)
	if _, err := sentinelConn.Publish(event.New("e", map[string]any{"kind": "load", "sentinel": true})); err != nil {
		t.Fatal(err)
	}
	for si, sub := range subs {
		got := 0
		for {
			ev := recv(t, sub)
			if _, isSentinel := ev.Attrs["sentinel"]; isSentinel {
				break
			}
			got++
		}
		if got != total {
			t.Errorf("subscriber %d: received %d of %d", si, got, total)
		}
		if d := sub.Dropped(); d != 0 {
			t.Errorf("subscriber %d: dropped %d client-side", si, d)
		}
	}
}

// TestSlowConsumerOverflow checks that one consumer that stops reading
// cannot stall the engine under DropOnFull: its pushes are dropped,
// counted, and exactly accounted for (received + dropped == published).
func TestSlowConsumerOverflow(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{SubBuffer: 8, Overflow: DropOnFull})

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	fmt.Fprintf(nc, "SUB slow\n")
	if line, err := br.ReadString('\n'); err != nil || strings.TrimSpace(line) != "OK" {
		t.Fatalf("SUB: %q %v", line, err)
	}
	// ...and now the subscriber stops reading.

	const total = 8000
	payload := strings.Repeat("x", 1024) // outgrow kernel socket buffers
	pub := dial(t, srv)
	for i := 0; i < total; i += 500 {
		batch := make([]*client.Event, 500)
		for j := range batch {
			batch[j] = event.New("e", map[string]any{"i": i + j, "pad": payload})
		}
		if _, err := pub.PublishBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	// Synchronous engine: every push was queued or dropped before the
	// last PublishBatch reply, so the counters are final.
	if d := eng.Metrics.Counter("server.push.dropped").Value(); d == 0 {
		t.Fatal("no pushes dropped; overflow never engaged (grow total?)")
	}

	// Drain the backlog; the STATS reply is ordered after it.
	fmt.Fprintf(nc, "STATS\n")
	nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	received := 0
	var stats string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("drain: %v (received %d)", err, received)
		}
		if strings.HasPrefix(line, "EVT slow ") {
			received++
			continue
		}
		stats = strings.TrimSpace(line)
		break
	}
	var sent, dropped, queued, subs, cqs uint64
	if _, err := fmt.Sscanf(stats, "OK sent=%d dropped=%d queued=%d subs=%d cqs=%d",
		&sent, &dropped, &queued, &subs, &cqs); err != nil {
		t.Fatalf("stats %q: %v", stats, err)
	}
	if dropped == 0 {
		t.Error("STATS reports no drops")
	}
	if received+int(dropped) != total {
		t.Errorf("received %d + dropped %d != published %d", received, dropped, total)
	}
}

// TestCloseDrainsConnections: Close must stop accepting, release
// blocked pushes, wait for every handler, and leave client channels
// closed — even while publishers and a non-reading subscriber are live.
func TestCloseDrainsConnections(t *testing.T) {
	eng, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := StartConfig(eng, "127.0.0.1:0", Config{SubBuffer: 1}) // BlockOnFull
	if err != nil {
		t.Fatal(err)
	}

	// A subscriber that never reads: pushes to it will block publishers.
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	fmt.Fprintf(nc, "SUB stuck\n")
	if line, err := br.ReadString('\n'); err != nil || strings.TrimSpace(line) != "OK" {
		t.Fatalf("SUB: %q %v", line, err)
	}

	// A healthy subscriber via the client library.
	healthy := dial(t, srv)
	hsub, err := healthy.Subscribe("h", "", 4096)
	if err != nil {
		t.Fatal(err)
	}

	// Publishers flood until the stuck connection's queue wedges them.
	payload := strings.Repeat("y", 2048)
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(srv.Addr())
			if err != nil {
				return
			}
			defer c.Close()
			for i := 0; i < 5000; i++ {
				if _, err := c.Publish(event.New("e", map[string]any{"i": i, "pad": payload})); err != nil {
					return // connection torn down by Close — expected
				}
			}
		}()
	}

	time.Sleep(100 * time.Millisecond) // let the flood wedge on the stuck conn
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: a blocked push or handler leaked")
	}
	wg.Wait()
	if srv.ConnCount() != 0 {
		t.Errorf("conns alive after Close: %d", srv.ConnCount())
	}

	// The healthy client observes the shutdown as a closed channel.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-hsub.C:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("subscription channel never closed after server Close")
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPublishersPush: four publishing connections evaluate on
// their own goroutines, so one subscriber's pushEvent runs concurrently
// from all of them, and every event still arrives.
func TestConcurrentPublishersPush(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	subConn := dial(t, srv)
	sub, err := subConn.Subscribe("all", "", 4096)
	if err != nil {
		t.Fatal(err)
	}
	const publishers, total = 4, 1000
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pub := dial(t, srv)
		evs := make([]*client.Event, total/publishers)
		for i := range evs {
			evs[i] = event.New(fmt.Sprintf("t%d", i%16), map[string]any{"p": p, "i": i})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pub.PublishBatch(evs); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got := 0
	timeout := time.After(10 * time.Second)
	for got < total {
		select {
		case _, ok := <-sub.C:
			if !ok {
				t.Fatalf("channel closed at %d", got)
			}
			got++
		case <-timeout:
			t.Fatalf("received %d of %d", got, total)
		}
	}
}

// TestFanoutSharedPayloadByteIdentical publishes from four connections
// at once (their goroutines evaluate and encode concurrently) while
// many connections subscribe to everything, then asserts
// every connection received byte-identical JSON for every event — the
// encode-once cache is written once and never mutated, and no sink
// ever observes a torn or divergent payload. Run with -race this also
// pins the cache's publication safety.
func TestFanoutSharedPayloadByteIdentical(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{SubBuffer: 2048})
	const conns = 6
	const events = 40

	type subConn struct {
		nc net.Conn
		br *bufio.Reader
	}
	subs := make([]*subConn, conns)
	for i := range subs {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		br := bufio.NewReader(nc)
		fmt.Fprintf(nc, "SUB all\n")
		line, err := br.ReadString('\n')
		if err != nil || strings.TrimSpace(line) != "OK" {
			t.Fatalf("SUB reply %q err %v", line, err)
		}
		subs[i] = &subConn{nc: nc, br: br}
	}

	// Four publishing connections each PUBB a quarter of the events;
	// explicit ids key the cross-connection comparison.
	const publishers = 4
	var pubs sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pub, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pub.Close() })
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			var b strings.Builder
			fmt.Fprintf(&b, "PUBB %d\n", events/publishers)
			for i := p; i < events; i += publishers {
				fmt.Fprintf(&b, `{"id":%d,"type":"t%d","attrs":{"n":%d,"s":"msg-%d","f":1.5}}`+"\n",
					100000+i, i%4, i, i)
			}
			pub.Write([]byte(b.String()))
			if line, err := bufio.NewReader(pub).ReadString('\n'); err != nil || !strings.HasPrefix(line, "OK") {
				t.Errorf("PUBB reply %q err %v", line, err)
			}
		}(p)
	}
	pubs.Wait()

	// Collect per-connection payloads keyed by event id.
	payloads := make([]map[string]string, conns)
	var wg sync.WaitGroup
	for i, sc := range subs {
		wg.Add(1)
		go func(i int, sc *subConn) {
			defer wg.Done()
			got := make(map[string]string, events)
			sc.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
			for len(got) < events {
				line, err := sc.br.ReadString('\n')
				if err != nil {
					t.Errorf("conn %d: read after %d events: %v", i, len(got), err)
					return
				}
				payload, ok := strings.CutPrefix(strings.TrimRight(line, "\r\n"), "EVT all ")
				if !ok {
					t.Errorf("conn %d: unexpected line %q", i, line)
					return
				}
				var probe struct {
					ID uint64 `json:"id"`
				}
				if err := json.Unmarshal([]byte(payload), &probe); err != nil {
					t.Errorf("conn %d: bad payload %q: %v", i, payload, err)
					return
				}
				got[fmt.Sprint(probe.ID)] = payload
			}
			payloads[i] = got
		}(i, sc)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < conns; i++ {
		for id, want := range payloads[0] {
			if got, ok := payloads[i][id]; !ok {
				t.Errorf("conn %d missed event %s", i, id)
			} else if got != want {
				t.Errorf("conn %d event %s payload diverged:\n  %s\nvs\n  %s", i, id, got, want)
			}
		}
	}
}

// ConnCount reports the number of live client connections.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// ReplicaCursors reports the latest RACKed cursor of every live
// replication stream, keyed by connection id. A cursor is the next
// LSN the follower expects: everything below it is applied and
// durable on that replica (the input to Checkpoint decisions).
func (s *Server) ReplicaCursors() map[uint64]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]uint64)
	for c := range s.conns {
		if c.hasSink(replSinkID) {
			out[c.id] = c.replCursor.Load()
		}
	}
	return out
}
