package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/frame"
)

// Tests for who writes a reply: the reader itself when its client is
// waiting for that reply alone, a burst when the client is pipelining.

// writeCounters reads the "writes" object of a connection's STATS
// format=json: its write(2) calls and the bursts started for it, as of
// before the STATS reply itself is written.
func writeCounters(t *testing.T, raw []byte) (calls, starts uint64) {
	t.Helper()
	var st struct {
		Writes struct {
			Calls        uint64 `json:"calls"`
			WriterStarts uint64 `json:"writer_starts"`
		} `json:"writes"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("STATS json %s: %v", raw, err)
	}
	return st.Writes.Calls, st.Writes.WriterStarts
}

// TestIdleReplyStartsNoWriter: a client that waits for each reply before
// sending the next command gets every reply from its reader, in one
// write each, and no burst is ever started for it — in either wire mode.
func TestIdleReplyStartsNoWriter(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	for _, binary := range []bool{false, true} {
		var opts []client.Option
		if binary {
			opts = append(opts, client.WithBinary())
		}
		c, err := client.Dial(srv.Addr(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		stats := func() (calls, starts uint64) {
			raw, err := c.StatsJSON()
			if err != nil {
				t.Fatal(err)
			}
			return writeCounters(t, raw)
		}
		calls0, starts0 := stats()
		for i := 0; i < 100; i++ {
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
		}
		calls1, starts1 := stats()
		// 100 PONGs and the first STATS reply, one write each.
		if calls1-calls0 != 101 || starts1 != starts0 {
			t.Errorf("binary=%v: 100 PINGs took %d writes and started %d bursts, want 101 and 0",
				binary, calls1-calls0, starts1-starts0)
		}
	}
}

// TestPipelinedRepliesInOrder: 5,000 commands sent in one write, with a
// subscription on the same connection, are answered in request order,
// each PUB's EVT ahead of its OK — and in fewer writes than commands,
// because a pipelining client's replies go to a burst, which coalesces
// what the reader queues while it writes. So are 5,000 PINGs, which
// push nothing.
func TestPipelinedRepliesInOrder(t *testing.T) {
	for _, binary := range []bool{false, true} {
		t.Run(fmt.Sprintf("binary=%v", binary), func(t *testing.T) {
			_, srv := startServer(t, core.Config{}, Config{})
			nc, br := wireDial(t, srv)
			fr := frame.NewReader(br)
			cmd := func(dst []byte, line string) []byte {
				if binary {
					return frame.AppendFrameString(dst, frame.Cmd, line)
				}
				return append(append(dst, line...), '\n')
			}
			// next reads one message: a push of subscription "all" or a
			// reply.
			next := func() (push bool, body string) {
				t.Helper()
				nc.SetReadDeadline(time.Now().Add(10 * time.Second))
				if !binary {
					line := readLine(t, br)
					if rest, ok := strings.CutPrefix(line, "EVT all "); ok {
						return true, rest
					}
					return false, line
				}
				typ, payload, err := fr.Next()
				if err != nil {
					t.Fatal(err)
				}
				switch typ {
				case frame.Evt:
					id, data, ok := frame.DecodeEvt(payload)
					if !ok || id != "all" {
						t.Fatalf("EVT frame for %q (ok=%v)", id, ok)
					}
					return true, string(data)
				case frame.Reply:
					return false, string(payload)
				}
				t.Fatalf("unexpected %s frame", typ)
				return false, ""
			}
			if binary {
				sendLine(t, nc, "HELLO 2")
				if got := readLine(t, br); got != "OK 2" {
					t.Fatalf("HELLO → %q", got)
				}
			}
			if _, err := nc.Write(cmd(nil, "SUB all")); err != nil {
				t.Fatal(err)
			}
			if push, got := next(); push || got != "OK" {
				t.Fatalf("SUB → %q", got)
			}

			calls := func() uint64 {
				t.Helper()
				if _, err := nc.Write(cmd(nil, "STATS format=json")); err != nil {
					t.Fatal(err)
				}
				_, got := next()
				calls, _ := writeCounters(t, []byte(strings.TrimPrefix(got, "OK ")))
				return calls
			}
			// pipeline sends n commands in one write — from its own
			// goroutine, so replies are read while it is still going and
			// neither end's socket buffers need to hold the whole exchange —
			// checks the answer to each in order, and fails if they took as
			// many writes as there were commands.
			const n = 5000
			pipeline := func(what string, batch []byte, answer func(i int)) {
				t.Helper()
				calls0 := calls()
				written := make(chan error, 1)
				go func() {
					_, err := nc.Write(batch)
					written <- err
				}()
				for i := 0; i < n; i++ {
					answer(i)
				}
				if err := <-written; err != nil {
					t.Fatal(err)
				}
				// The first STATS reply's write is in the count too.
				writes := calls() - calls0
				t.Logf("%d %s: %d writes", n, what, writes)
				if writes >= n {
					t.Errorf("%d pipelined %s took %d writes: their replies were not coalesced", n, what, writes)
				}
			}

			var batch []byte
			for i := 0; i < n; i++ {
				switch i % 3 {
				case 0:
					batch = cmd(batch, "PING")
				case 1:
					ev := fmt.Sprintf(`{"type":"t","attrs":{"n":%d}}`, i)
					if binary {
						batch = frame.AppendFrameString(batch, frame.Pub, ev)
					} else {
						batch = cmd(batch, "PUB "+ev)
					}
				case 2:
					batch = cmd(batch, "STATS")
				}
			}
			pipeline("mixed commands", batch, func(i int) {
				push, got := next()
				switch i % 3 {
				case 0:
					if push || got != "PONG" {
						t.Fatalf("command %d (PING) → %q", i, got)
					}
				case 1:
					if !push {
						t.Fatalf("command %d (PUB) → %q before its EVT", i, got)
					}
					ev, err := event.UnmarshalJSONEvent([]byte(got))
					if err != nil {
						t.Fatalf("EVT %q: %v", got, err)
					}
					if m := attrN(t, ev); m != i {
						t.Fatalf("command %d (PUB): EVT of n=%d", i, m)
					}
					if push, got := next(); push || got != "OK 1" {
						t.Fatalf("command %d (PUB) → %q after its EVT", i, got)
					}
				case 2:
					if push || !strings.HasPrefix(got, "OK sent=") {
						t.Fatalf("command %d (STATS) → %q", i, got)
					}
				}
			})
			// With no push to keep a burst running, only the buffered-input
			// rule stands between the replies and one write each.
			batch = batch[:0]
			for i := 0; i < n; i++ {
				batch = cmd(batch, "PING")
			}
			pipeline("PINGs", batch, func(i int) {
				if push, got := next(); push || got != "PONG" {
					t.Fatalf("PING %d → %q", i, got)
				}
			})
		})
	}
}

// stallReader sends commands whose replies are 128 KB each — an unknown
// verb is echoed in its error — and never reads. Each command goes out
// once the reply to the last one has begun its write, so none is
// buffered behind another and every reply is the reader's own write,
// until one of them does not return: the socket buffers of both ends
// are full, and the reader is blocked in that write. It returns the
// server side of the connection.
func stallReader(t *testing.T, srv *Server) *conn {
	t.Helper()
	nc, _ := wireDial(t, srv)
	cmd := append(bytes.Repeat([]byte("x"), 128<<10), '\n')
	sends := make(chan struct{}, 1)
	defer close(sends)
	go func() {
		for range sends {
			if _, err := nc.Write(cmd); err != nil {
				return
			}
		}
	}()
	var c *conn
	for deadline := time.Now().Add(5 * time.Second); c == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server never registered the connection")
		}
		srv.mu.Lock()
		for sc := range srv.conns {
			c = sc
		}
		srv.mu.Unlock()
	}
	for k := uint64(1); k <= 1000; k++ {
		sends <- struct{}{}
		// write counts a call on its way into the socket, so a count that
		// stays short of k is a reply write that has not begun.
		deadline := time.Now().Add(time.Second)
		for c.writeCalls.Load() < k && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if c.writeCalls.Load() < k {
			if starts := c.writerStarts.Load(); starts != 0 {
				t.Fatalf("%d bursts were started; every reply should have been the reader's", starts)
			}
			return c
		}
	}
	t.Fatal("1000 unread replies of 128 KB never filled the socket")
	return nil
}

// TestReaderBlockedInWriteIsReleased: a reader blocked in the write of
// its own reply to a client that does not read is not stuck for good.
// With WriteTimeout set the write fails and the connection tears down,
// as TestWriteTimeoutUnsticksWriter checks for a burst; without it,
// Server.Close closes the socket under the write and returns within
// DrainTimeout.
func TestReaderBlockedInWriteIsReleased(t *testing.T) {
	t.Run("write-timeout", func(t *testing.T) {
		_, srv := startServer(t, core.Config{}, Config{WriteTimeout: 300 * time.Millisecond})
		stallReader(t, srv)
		for deadline := time.Now().Add(10 * time.Second); srv.ConnCount() > 0; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the write timeout never tore the connection down")
			}
		}
	})
	t.Run("close", func(t *testing.T) {
		const drain = 500 * time.Millisecond
		_, srv := startServer(t, core.Config{}, Config{DrainTimeout: drain})
		c := stallReader(t, srv)
		c.omu.Lock()
		state := c.wstate
		c.omu.Unlock()
		if state != wRunning {
			t.Fatalf("writer state %d while the reader's write is blocked, want wRunning", state)
		}
		start := time.Now()
		srv.Close()
		if d := time.Since(start); d > drain+2*time.Second {
			t.Fatalf("Server.Close took %v with the reader blocked in a write", d)
		}
		if n := srv.ConnCount(); n != 0 {
			t.Fatalf("%d connections left after Close", n)
		}
	})
}
