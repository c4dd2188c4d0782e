package server

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/frame"
)

// Tests for the negotiated wire: the HELLO handshake, the binary frame
// protocol, and text/binary coexistence on one engine.

// rawDial opens a raw socket to the server with a line reader.
func wireDial(t *testing.T, srv *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc, bufio.NewReader(nc)
}

func sendLine(t *testing.T, nc net.Conn, line string) {
	t.Helper()
	if _, err := nc.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
}

func readLine(t *testing.T, br *bufio.Reader) string {
	t.Helper()
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("read line: %v", err)
	}
	return strings.TrimRight(line, "\r\n")
}

func TestHelloNegotiation(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	nc, br := wireDial(t, srv)

	// Ask for a higher version than the server speaks: it caps at its
	// own (3), never echoes something it cannot honor.
	sendLine(t, nc, "HELLO 7")
	if got := readLine(t, br); got != "OK 3" {
		t.Fatalf("HELLO 7 → %q, want OK 3", got)
	}
	// The reply to HELLO was still a text line; everything after it is
	// framed. PING must now come back as a Reply frame.
	if _, err := nc.Write(frame.AppendFrameString(nil, frame.Cmd, "PING")); err != nil {
		t.Fatal(err)
	}
	fr := frame.NewReader(br)
	typ, payload, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != frame.Reply || string(payload) != "PONG" {
		t.Fatalf("framed PING → %s %q", typ, payload)
	}
}

func TestHelloVersionOneStaysText(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	nc, br := wireDial(t, srv)
	sendLine(t, nc, "HELLO 1")
	if got := readLine(t, br); got != "OK 1" {
		t.Fatalf("HELLO 1 → %q", got)
	}
	sendLine(t, nc, "PING")
	if got := readLine(t, br); got != "PONG" {
		t.Fatalf("text PING after HELLO 1 → %q", got)
	}
}

func TestHelloBadArgs(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	nc, br := wireDial(t, srv)
	sendLine(t, nc, "HELLO zero")
	if got := readLine(t, br); !strings.HasPrefix(got, "ERR badargs") {
		t.Fatalf("HELLO zero → %q", got)
	}
	sendLine(t, nc, "HELLO 0")
	if got := readLine(t, br); !strings.HasPrefix(got, "ERR badargs") {
		t.Fatalf("HELLO 0 → %q", got)
	}
	// The connection survives a refused handshake.
	sendLine(t, nc, "PING")
	if got := readLine(t, br); got != "PONG" {
		t.Fatalf("PING after refused HELLO → %q", got)
	}
}

func TestHelloRefusedAfterSubscription(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	nc, br := wireDial(t, srv)
	sendLine(t, nc, "SUB s1")
	if got := readLine(t, br); got != "OK" {
		t.Fatalf("SUB → %q", got)
	}
	sendLine(t, nc, "HELLO 2")
	if got := readLine(t, br); !strings.HasPrefix(got, "ERR conflict") {
		t.Fatalf("HELLO after SUB → %q, want ERR conflict", got)
	}
}

// TestHelloParkFlagEcho: the retired park flag, like any unknown flag,
// is ignored, not echoed, and does not hide a flag granted beside it.
func TestHelloParkFlagEcho(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	for _, tc := range []struct{ hello, want string }{
		{"HELLO 2 park", "OK 2"},
		{"HELLO 2 park,lowprio", "OK 2 lowprio"},
		{"HELLO 2 sparkle", "OK 2"},
	} {
		nc, br := wireDial(t, srv)
		sendLine(t, nc, tc.hello)
		if got := readLine(t, br); got != tc.want {
			t.Fatalf("%s → %q, want %q", tc.hello, got, tc.want)
		}
	}
}

// TestMixedModeByteIdentity proves the tentpole's encode-once claim
// from the outside: one engine, one published event, two subscribers —
// one text, one binary — and the event JSON each receives is
// byte-identical.
func TestMixedModeByteIdentity(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})

	// Text subscriber.
	tnc, tbr := wireDial(t, srv)
	sendLine(t, tnc, "SUB both")
	if got := readLine(t, tbr); got != "OK" {
		t.Fatalf("text SUB → %q", got)
	}

	// Binary subscriber.
	bnc, bbr := wireDial(t, srv)
	sendLine(t, bnc, "HELLO 2")
	if got := readLine(t, bbr); got != "OK 2" {
		t.Fatalf("HELLO → %q", got)
	}
	if _, err := bnc.Write(frame.AppendFrameString(nil, frame.Cmd, "SUB both")); err != nil {
		t.Fatal(err)
	}
	bfr := frame.NewReader(bbr)
	typ, payload, err := bfr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != frame.Reply || string(payload) != "OK" {
		t.Fatalf("binary SUB → %s %q", typ, payload)
	}

	// Publish from a third, ordinary connection.
	pub := dial(t, srv)
	if _, err := pub.Publish(event.New("tick", map[string]any{"n": 42, "s": "x y"})); err != nil {
		t.Fatal(err)
	}

	// Text side: "EVT both <json>".
	tnc.SetReadDeadline(time.Now().Add(5 * time.Second))
	line := readLine(t, tbr)
	rest, ok := strings.CutPrefix(line, "EVT both ")
	if !ok {
		t.Fatalf("text push %q", line)
	}
	textJSON := []byte(rest)

	// Binary side: Evt frame.
	bnc.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err = bfr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != frame.Evt {
		t.Fatalf("binary push type %s", typ)
	}
	id, binJSON, ok := frame.DecodeEvt(payload)
	if !ok || id != "both" {
		t.Fatalf("binary push decode: id=%q ok=%v", id, ok)
	}

	if !bytes.Equal(textJSON, binJSON) {
		t.Fatalf("payload mismatch:\ntext   %s\nbinary %s", textJSON, binJSON)
	}
	if _, err := event.UnmarshalJSONEvent(textJSON); err != nil {
		t.Fatalf("payload not an event: %v", err)
	}
}

// TestBinaryPubFrame publishes through the binary fast path (Pub
// frames) and confirms delivery counting matches the text PUB verb.
func TestBinaryPubFrame(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	sub := dial(t, srv)
	s, err := sub.Subscribe("all", "", 8)
	if err != nil {
		t.Fatal(err)
	}

	nc, br := wireDial(t, srv)
	sendLine(t, nc, "HELLO 2")
	if got := readLine(t, br); got != "OK 2" {
		t.Fatalf("HELLO → %q", got)
	}
	fr := frame.NewReader(br)
	ev := event.New("tick", map[string]any{"n": 1})
	data, err := event.MarshalJSONEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(frame.AppendFrame(nil, frame.Pub, data)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != frame.Reply || string(payload) != "OK 1" {
		t.Fatalf("Pub frame → %s %q, want Reply \"OK 1\"", typ, payload)
	}
	got := recv(t, s)
	if got.Type != "tick" {
		t.Fatalf("delivered %v", got)
	}
}

// TestBinaryClientEndToEnd drives the full client library in binary
// mode against a live server: request/reply, pushes, durable queues.
func TestBinaryClientEndToEnd(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	c, err := client.Dial(srv.Addr(), client.WithBinary())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Binary() {
		t.Fatal("WithBinary against a current server did not negotiate binary")
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	s, err := c.Subscribe("hot", "n > 10", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish(event.New("tick", map[string]any{"n": 11})); err != nil {
		t.Fatal(err)
	}
	ev := recv(t, s)
	if ev.Type != "tick" {
		t.Fatalf("pushed %v", ev)
	}
	// Durable path over frames.
	d, err := c.DurableSubscribe("wq", "n > 0", client.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish(event.New("tick", map[string]any{"n": 3})); err != nil {
		t.Fatal(err)
	}
	select {
	case del := <-d.C:
		if del.Event.Type != "tick" {
			t.Fatalf("delivered %v", del.Event)
		}
		if err := del.Ack(); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for durable delivery")
	}
	// Stats flow over the framed reply path too.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Subs != 1 || st.QSubs != 1 {
		t.Fatalf("stats %+v", st)
	}
	raw, err := c.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), `{"sent":`) {
		t.Fatalf("StatsJSON %q", raw)
	}
}

// TestStatsFieldOrder pins the documented key order of the text STATS
// and QSTATS replies — scripts parse these positionally.
func TestStatsFieldOrder(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	nc, br := wireDial(t, srv)
	sendLine(t, nc, "STATS")
	line := readLine(t, br)
	rest, ok := strings.CutPrefix(line, "OK ")
	if !ok {
		t.Fatalf("STATS → %q", line)
	}
	var keys []string
	for _, f := range strings.Fields(rest) {
		k, _, ok := strings.Cut(f, "=")
		if !ok {
			t.Fatalf("STATS field %q", f)
		}
		keys = append(keys, k)
	}
	want := "sent dropped queued subs cqs qsubs"
	if got := strings.Join(keys, " "); got != want {
		t.Fatalf("STATS key order %q, want %q", got, want)
	}

	sendLine(t, nc, "QSUB q manual")
	if got := readLine(t, br); got != "OK" {
		t.Fatalf("QSUB → %q", got)
	}
	sendLine(t, nc, "QSTATS q")
	line = readLine(t, br)
	rest, ok = strings.CutPrefix(line, "OK ")
	if !ok {
		t.Fatalf("QSTATS → %q", line)
	}
	keys = keys[:0]
	for _, f := range strings.Fields(rest) {
		k, _, _ := strings.Cut(f, "=")
		keys = append(keys, k)
	}
	want = "ready inflight dead outstanding"
	if got := strings.Join(keys, " "); got != want {
		t.Fatalf("QSTATS key order %q, want %q", got, want)
	}

	// format=json variants answer with one JSON object.
	sendLine(t, nc, "STATS format=json")
	if got := readLine(t, br); !strings.HasPrefix(got, `OK {"sent":`) {
		t.Fatalf("STATS format=json → %q", got)
	}
	sendLine(t, nc, "QSTATS q format=json")
	if got := readLine(t, br); !strings.HasPrefix(got, `OK {"ready":`) {
		t.Fatalf("QSTATS format=json → %q", got)
	}
	sendLine(t, nc, "STATS format=xml")
	if got := readLine(t, br); !strings.HasPrefix(got, "ERR badargs") {
		t.Fatalf("STATS format=xml → %q", got)
	}
}

// TestReadTimeoutKillsMidCommandStall: a half-open client that starts
// a command and never finishes it is closed once ReadTimeout elapses,
// instead of pinning its goroutines forever.
func TestReadTimeoutKillsMidCommandStall(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{ReadTimeout: 200 * time.Millisecond})
	nc, br := wireDial(t, srv)

	// A complete command still works.
	sendLine(t, nc, "PING")
	if got := readLine(t, br); got != "PONG" {
		t.Fatalf("PING → %q", got)
	}

	// Idle (no partial command) far beyond the timeout: must survive.
	time.Sleep(500 * time.Millisecond)
	sendLine(t, nc, "PING")
	if got := readLine(t, br); got != "PONG" {
		t.Fatalf("PING after idle → %q", got)
	}

	// Now stall mid-command: bytes with no newline.
	if _, err := nc.Write([]byte("PUB {\"type\"")); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadString('\n'); err == nil {
		t.Fatal("server kept a mid-command stalled connection open")
	}
}

// TestReadTimeoutKillsMidFrameStall is the binary-mode twin: a frame
// header with a missing body must not hold the connection open.
func TestReadTimeoutKillsMidFrameStall(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{ReadTimeout: 200 * time.Millisecond})
	nc, br := wireDial(t, srv)
	sendLine(t, nc, "HELLO 2")
	if got := readLine(t, br); got != "OK 2" {
		t.Fatalf("HELLO → %q", got)
	}
	// Header promising 100 payload bytes, then silence.
	full := frame.AppendFrameString(nil, frame.Cmd, strings.Repeat("x", 100))
	if _, err := nc.Write(full[:3]); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := br.Read(buf); err == nil {
		t.Fatal("server kept a mid-frame stalled connection open")
	}
}

// TestWriteTimeoutUnsticksWriter: a client that stops reading while
// the server is pushing cannot pin the writer goroutine forever once
// WriteTimeout is set.
func TestWriteTimeoutUnsticksWriter(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{
		WriteTimeout: 300 * time.Millisecond,
		SubBuffer:    16,
	})
	nc, br := wireDial(t, srv)
	sendLine(t, nc, "SUB all")
	if got := readLine(t, br); got != "OK" {
		t.Fatalf("SUB → %q", got)
	}
	// Stop reading; flood from another connection until the kernel
	// buffers fill and the server's write blocks, then times out.
	pub := dial(t, srv)
	big := strings.Repeat("z", 32<<10)
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := pub.Publish(event.New("flood", map[string]any{"pad": big})); err != nil {
			t.Fatalf("publisher lost its connection: %v", err)
		}
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n <= 1 { // the stuck subscriber was torn down
			return
		}
	}
	t.Fatal("write-timeout never tore down the unread subscriber")
}

func TestLegacyTextPathUnchanged(t *testing.T) {
	// The default client (no options) must not send HELLO at all: the
	// first bytes on the wire are the first command.
	_, srv := startServer(t, core.Config{}, Config{})
	c := dial(t, srv)
	if c.Binary() {
		t.Fatal("default dial negotiated binary")
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	var sent uint64
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	sent = st.Sent
	if sent == 0 {
		t.Fatal("stats sent=0 after two replies")
	}
}
