package ws

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// echoServer upgrades and echoes every data message back.
func echoServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Accept(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		for {
			op, p, err := c.ReadMessage()
			if err != nil {
				return
			}
			if err := c.WriteMessage(op, p); err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func wsURL(srv *httptest.Server) string {
	return "ws" + strings.TrimPrefix(srv.URL, "http")
}

func TestEchoRoundTrip(t *testing.T) {
	srv := echoServer(t)
	c, err := Dial(wsURL(srv)+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, msg := range []string{"hello", "", strings.Repeat("x", 70000)} {
		if err := c.WriteMessage(OpText, []byte(msg)); err != nil {
			t.Fatal(err)
		}
		op, p, err := c.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if op != OpText || string(p) != msg {
			t.Fatalf("echo mismatch: op=%d len=%d want len=%d", op, len(p), len(msg))
		}
	}
	// Binary echoes too, including bytes that would break a text codec.
	bin := []byte{0, 1, 2, 0xFF, 0xFE, '\n', '\r'}
	if err := c.WriteMessage(OpBinary, bin); err != nil {
		t.Fatal(err)
	}
	op, p, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpBinary || string(p) != string(bin) {
		t.Fatalf("binary echo mismatch: op=%d %q", op, p)
	}
}

func TestPingPong(t *testing.T) {
	srv := echoServer(t)
	c, err := Dial(wsURL(srv)+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The server's ReadMessage answers the ping transparently; our next
	// data round trip proves the connection survived it.
	if err := c.WritePing([]byte("beat")); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteMessage(OpText, []byte("after-ping")); err != nil {
		t.Fatal(err)
	}
	_, p, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(p) != "after-ping" {
		t.Fatalf("got %q", p)
	}
}

func TestCloseHandshake(t *testing.T) {
	srv := echoServer(t)
	c, err := Dial(wsURL(srv)+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteClose(CloseNormal, "done"); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.ReadMessage()
	var ce *CloseError
	if !errors.As(err, &ce) {
		t.Fatalf("want CloseError, got %v", err)
	}
	if ce.Code != CloseNormal {
		t.Fatalf("close code %d, want %d", ce.Code, CloseNormal)
	}
}

func TestAcceptKey(t *testing.T) {
	// The worked example from RFC 6455 §1.3.
	got := AcceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Fatalf("AcceptKey = %q, want %q", got, want)
	}
}

func TestRejectsNonUpgrade(t *testing.T) {
	srv := echoServer(t)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("plain GET got %d, want 400", resp.StatusCode)
	}
}

func TestServerRejectsUnmaskedClientFrame(t *testing.T) {
	done := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Accept(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		_, _, err = c.ReadMessage()
		done <- err
	}))
	defer srv.Close()
	c, err := Dial(wsURL(srv)+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Write a raw unmasked text frame straight to the socket, bypassing
	// the client's masking.
	if _, err := c.NetConn().Write([]byte{0x81, 0x02, 'h', 'i'}); err != nil {
		t.Fatal(err)
	}
	err = <-done
	if err == nil || !strings.Contains(err.Error(), "unmasked") {
		t.Fatalf("server accepted unmasked frame: err=%v", err)
	}
}

func TestReadLimit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Accept(w, r)
		if err != nil {
			return
		}
		defer c.Close()
		c.SetReadLimit(16)
		_, _, err = c.ReadMessage()
		if err != nil {
			c.WriteClose(closeTooBig, "too big")
		}
	}))
	defer srv.Close()
	c, err := Dial(wsURL(srv)+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteMessage(OpText, []byte(strings.Repeat("x", 64))); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.ReadMessage()
	var ce *CloseError
	if !errors.As(err, &ce) || ce.Code != closeTooBig {
		t.Fatalf("want closeTooBig close, got %v", err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	srv := echoServer(t)
	c, err := Dial(wsURL(srv)+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if err := c.WriteMessage(OpText, []byte("msg")); err != nil {
					return
				}
			}
		}()
	}
	got := 0
	for got < writers*per {
		_, p, err := c.ReadMessage()
		if err != nil {
			t.Fatalf("after %d echoes: %v", got, err)
		}
		if string(p) != "msg" {
			t.Fatalf("interleaved frame: %q", p)
		}
		got++
	}
	wg.Wait()
}

// closeTooBig is RFC 6455's close code for a message too big to process.
const closeTooBig = 1009

// SetReadLimit bounds the total size of one inbound message (frame or
// sum of continuation fragments). Messages beyond it fail the read
// with ErrTooBig; the caller should close the connection.
func (c *Conn) SetReadLimit(n int64) { c.readLimit = n }

// WritePing solicits a pong.
func (c *Conn) WritePing(payload []byte) error { return c.writeFrame(OpPing, payload) }
