package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/frame"
	"eventdb/internal/raceflag"
)

// Tests for the per-connection cost of fan-out: the outbound byte
// buffer on the server side (one append per pushed message) and the
// client's decode-once body memo, black-box over both wires.

// bothWires runs f once per wire mode.
func bothWires(t *testing.T, f func(t *testing.T, opts ...client.Option)) {
	t.Run("text", func(t *testing.T) { f(t) })
	t.Run("binary", func(t *testing.T) { f(t, client.WithBinary()) })
}

func dialWith(t *testing.T, srv *Server, opts ...client.Option) *client.Conn {
	t.Helper()
	c, err := client.Dial(srv.Addr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

const fanSubs = 16

func attrInt(ev *client.Event, name string) int64 {
	n, _ := ev.Attrs[name].AsInt()
	return n
}

// TestFanoutSharedDecode: 16 subscriptions of one connection. Published
// one at a time, an event reaches all 16 as one shared *Event (decoded
// once) and two events never share one; with two publishers
// interleaving events that differ in a single attribute, every
// subscription still sees every event exactly once, in each
// publisher's order, with the right content.
func TestFanoutSharedDecode(t *testing.T) {
	bothWires(t, func(t *testing.T, opts ...client.Option) {
		_, srv := startServer(t, core.Config{}, Config{SubBuffer: 64})
		const serial, perPub = 50, 300
		recvConn := dialWith(t, srv, opts...)
		subs := make([]*client.Subscription, fanSubs)
		for i := range subs {
			s, err := recvConn.Subscribe(fmt.Sprintf("s%d", i), "", serial+2*perPub)
			if err != nil {
				t.Fatal(err)
			}
			subs[i] = s
		}

		// One publisher, one event at a time: the 16 pushes of an event
		// are consecutive on the wire, so they are one decode.
		pub := dialWith(t, srv, opts...)
		seen := map[*client.Event]int64{}
		for k := int64(0); k < serial; k++ {
			if _, err := pub.Publish(event.New("tick", map[string]any{"p": 0, "k": k, "pad": "same"})); err != nil {
				t.Fatal(err)
			}
			first := recv(t, subs[0])
			if prev, dup := seen[first]; dup {
				t.Fatalf("publish %d was delivered as the event of publish %d", k, prev)
			}
			seen[first] = k
			for i, s := range subs {
				ev := first
				if i > 0 {
					ev = recv(t, s)
				}
				if ev != first {
					t.Fatalf("publish %d: subscription %d got its own decode, not the shared event", k, i)
				}
				if attrInt(ev, "k") != k || ev.Type != "tick" {
					t.Fatalf("publish %d: subscription %d got %v", k, i, ev)
				}
			}
		}

		// Two publishers at once, events differing in one attribute.
		var wg sync.WaitGroup
		for p := int64(1); p <= 2; p++ {
			wg.Add(1)
			go func(p int64) {
				defer wg.Done()
				c, err := client.Dial(srv.Addr(), opts...)
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				for k := int64(0); k < perPub; k++ {
					if _, err := c.Publish(event.New("tick", map[string]any{"p": p, "k": k, "pad": "same"})); err != nil {
						t.Error(err)
						return
					}
				}
			}(p)
		}
		wg.Wait()
		type pk struct{ p, k int64 }
		owner := map[*client.Event]pk{}
		for i, s := range subs {
			next := map[int64]int64{1: 0, 2: 0}
			for n := 0; n < 2*perPub; n++ {
				ev := recv(t, s)
				p, k := attrInt(ev, "p"), attrInt(ev, "k")
				if k != next[p] {
					t.Fatalf("subscription %d: publisher %d's event %d arrived where %d was due", i, p, k, next[p])
				}
				next[p]++
				if pad, _ := ev.Attrs["pad"].AsString(); pad != "same" || len(ev.Attrs) != 3 {
					t.Fatalf("subscription %d: wrong content %v", i, ev)
				}
				if o, ok := owner[ev]; ok && o != (pk{p, k}) {
					t.Fatalf("one *Event stands for publishes %v and %v", o, pk{p, k})
				}
				owner[ev] = pk{p, k}
			}
			if d := s.Dropped(); d != 0 {
				t.Errorf("subscription %d dropped %d client-side", i, d)
			}
		}
		if len(owner) < 2*perPub {
			t.Errorf("%d distinct events for %d publishes", len(owner), 2*perPub)
		}
	})
}

// TestMemoSurvivesOtherTraffic: a QEVT and a reply between two EVTs
// neither break nor poison the client's body memo — every delivery of
// either kind carries the content of its own publish.
func TestMemoSurvivesOtherTraffic(t *testing.T) {
	bothWires(t, func(t *testing.T, opts ...client.Option) {
		_, srv := startServer(t, core.Config{}, Config{})
		c := dialWith(t, srv, opts...)
		subA, err := c.Subscribe("a", "", 64)
		if err != nil {
			t.Fatal(err)
		}
		subB, err := c.Subscribe("b", "", 64)
		if err != nil {
			t.Fatal(err)
		}
		dur, err := c.DurableSubscribe("q", "", client.DurableOptions{AutoAck: true})
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 40; k++ {
			// The reply to this publish, the two EVTs and the QEVT share
			// the connection.
			if _, err := c.Publish(event.New("tick", map[string]any{"k": k, "pad": "same"})); err != nil {
				t.Fatal(err)
			}
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			for name, sub := range map[string]*client.Subscription{"a": subA, "b": subB} {
				if ev := recv(t, sub); attrInt(ev, "k") != k || ev.Type != "tick" {
					t.Fatalf("publish %d: subscription %s got %v", k, name, ev)
				}
			}
			select {
			case d := <-dur.C:
				if attrInt(d.Event, "k") != k || d.Event.Type != "tick" {
					t.Fatalf("publish %d: durable delivery was %v", k, d.Event)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("publish %d: no durable delivery", k)
			}
		}
	})
}

// TestWireGolden pins the exact bytes the daemon writes for a reply, an
// EVT and a QEVT, in text and in binary: what reaches the socket is
// what it was before the outbound queue became a byte buffer.
func TestWireGolden(t *testing.T) {
	const body = `{"id":7,"type":"t","source":"s","time":"2024-05-01T12:00:00Z","attrs":{"n":1,"s":"x y"}}`
	if len(body) >= 100 {
		t.Fatal("the binary goldens below assume one-byte length prefixes")
	}
	read := func(t *testing.T, br *bufio.Reader, n int) string {
		t.Helper()
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			t.Fatalf("read %d bytes: %v (got %q)", n, err, buf)
		}
		return string(buf)
	}
	// expectSet reads the given messages in whatever order they come
	// (the QEVT's consumer goroutine races the publish's own reply).
	expectSet := func(t *testing.T, br *bufio.Reader, want ...string) {
		t.Helper()
		total := 0
		for _, w := range want {
			total += len(w)
		}
		got := read(t, br, total)
		for len(got) > 0 {
			matched := false
			for i, w := range want {
				if w != "" && len(got) >= len(w) && got[:len(w)] == w {
					got, want[i], matched = got[len(w):], "", true
					break
				}
			}
			if !matched {
				t.Fatalf("unexpected bytes on the wire: %q (still waiting for %q)", got, want)
			}
		}
	}

	t.Run("text", func(t *testing.T) {
		_, srv := startServer(t, core.Config{}, Config{})
		nc, br := wireDial(t, srv)
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		for _, step := range [][2]string{
			{"PING\n", "PONG\n"},
			{"SUB s1\n", "OK\n"},
			{"QSUB q auto\n", "OK\n"},
			{"NOPE\n", "ERR unknown unknown command \"NOPE\"\n"},
		} {
			io.WriteString(nc, step[0])
			if got := read(t, br, len(step[1])); got != step[1] {
				t.Fatalf("%q → %q, want %q", step[0], got, step[1])
			}
		}
		io.WriteString(nc, "PUB "+body+"\n")
		expectSet(t, br, "EVT s1 "+body+"\n", "QEVT q - 1 "+body+"\n", "OK 2\n")
	})

	t.Run("binary", func(t *testing.T) {
		_, srv := startServer(t, core.Config{}, Config{})
		nc, br := wireDial(t, srv)
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		io.WriteString(nc, "HELLO 2\n")
		if got := read(t, br, 5); got != "OK 2\n" {
			t.Fatalf("HELLO → %q", got)
		}
		cmd := func(line string) []byte { return frame.AppendFrameString(nil, frame.Cmd, line) }
		for _, step := range []struct {
			send []byte
			want string
		}{
			{cmd("PING"), "\x04\x04PONG"},
			{cmd("SUB s1"), "\x04\x02OK"},
			{cmd("QSUB q auto"), "\x04\x02OK"},
		} {
			nc.Write(step.send)
			if got := read(t, br, len(step.want)); got != step.want {
				t.Fatalf("%q → %q, want %q", step.send, got, step.want)
			}
		}
		nc.Write(frame.AppendFrame(nil, frame.Pub, []byte(body)))
		evt := "\x05" + string(rune(1+2+len(body))) + "\x02s1" + body
		qevt := "\x06" + string(rune(2+2+1+len(body))) + "\x01q" + "\x01-" + "\x01" + body
		expectSet(t, br, evt, qevt, "\x04\x04OK 2")
	})
}

// pushConn is a connection with fanSubs match-all subscriptions whose
// peer reads and discards, plus the server-side conn to push on and the
// subscriptions' local ids; binary negotiates HELLO 2.
func pushConn(tb testing.TB, binary bool, cfg Config) (*conn, []string) {
	tb.Helper()
	if binary {
		return helloConn(tb, 2, cfg)
	}
	return helloConn(tb, 1, cfg)
}

// helloConn is pushConn at a protocol version: 1 speaks text without a
// HELLO, 2 and 3 negotiate theirs.
func helloConn(tb testing.TB, version int, cfg Config) (*conn, []string) {
	tb.Helper()
	binary, hello := version >= 2, fmt.Sprintf("HELLO %d", version)
	eng, err := core.Open(core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Close() })
	srv, err := StartConfig(eng, "127.0.0.1:0", cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { nc.Close() })
	br := bufio.NewReader(nc)
	ask := func(line, want string) {
		if binary && line != hello {
			nc.Write(frame.AppendFrameString(nil, frame.Cmd, line))
			want = string(frame.AppendFrameString(nil, frame.Reply, want))
		} else {
			io.WriteString(nc, line+"\n")
			want += "\n"
		}
		got := make([]byte, len(want))
		if _, err := io.ReadFull(br, got); err != nil || string(got) != want {
			tb.Fatalf("%s → %q (%v), want %q", line, got, err, want)
		}
	}
	if binary {
		ask(hello, fmt.Sprintf("OK %d", version))
	}
	ids := make([]string, fanSubs)
	for i := range ids {
		ids[i] = fmt.Sprintf("f%d", i)
		ask("SUB "+ids[i], "OK")
	}
	go io.Copy(io.Discard, br)
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for c := range srv.conns {
		return c, ids
	}
	tb.Fatal("the server has no connection")
	return nil, nil
}

// tick is an event the size of the E23 benchmark's.
func tick() *event.Event {
	return event.New("tick", map[string]any{"seq": 1, "sym": "SYM0042", "qty": 977, "px": 99173,
		"pad": "pppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppp"})
}

// TestAllocsPush: in the steady state, pushing one event to the 16
// sinks of one connection allocates nothing — no per-message buffer,
// no per-burst closure — in either wire mode, nor as HELLO 3's one
// Evts frame.
func TestAllocsPush(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for version := 1; version <= protocolVersion; version++ {
		// Room for every message of the measurement: a full queue would
		// make the producer wait, and allocate the channel it waits on.
		c, ids := helloConn(t, version, Config{SubBuffer: 1 << 20})
		names := brokerNames(c, ids)
		ev := tick()
		push := func() { c.pushEvent(names, ev) }
		for i := 0; i < 100; i++ { // grow both outbound buffers to their working size
			push()
		}
		if allocs := testing.AllocsPerRun(500, push); allocs != 0 {
			t.Errorf("HELLO %d: pushing one event to %d sinks allocates %v, want 0", version, fanSubs, allocs)
		}
	}
}

// brokerNames returns the broker names of c's SUBs with local ids ids.
func brokerNames(c *conn, ids []string) []string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = c.subs + id
	}
	return names
}

// TestAllocsReply: a reply to a connection whose writer is idle, with
// no input buffered behind the command, is written by the replying
// goroutine and allocates nothing in either wire mode — no burst to
// start, and no closure to start it with. The test goroutine stands in
// for the reader, which is blocked in a read of a socket the peer never
// writes to.
func TestAllocsReply(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, binary := range []bool{false, true} {
		c, _ := pushConn(t, binary, Config{})
		reply := func() { c.reply("PONG") }
		for i := 0; i < 100; i++ { // grow the outbound buffers to their working size
			reply()
		}
		// The peer can read the last SUB reply before the reader's write of
		// it returns, and a reply queued behind that write goes to a burst:
		// measure from an idle writer.
		for {
			c.omu.Lock()
			idle := c.wstate == wIdle
			c.omu.Unlock()
			if idle {
				break
			}
			time.Sleep(time.Millisecond)
		}
		starts := c.writerStarts.Load()
		if allocs := testing.AllocsPerRun(500, reply); allocs != 0 {
			t.Errorf("binary=%v: a reply to an idle connection allocates %v, want 0", binary, allocs)
		}
		if n := c.writerStarts.Load() - starts; n != 0 {
			t.Errorf("binary=%v: %d bursts started for replies to an idle connection", binary, n)
		}
	}
}

// BenchmarkConnReply reports the cost of one reply to a connection whose
// writer is idle: the append, and the replying goroutine's own write to
// a loopback peer that discards. A guard, not a headline.
func BenchmarkConnReply(b *testing.B) {
	for _, binary := range []bool{false, true} {
		b.Run(fmt.Sprintf("binary=%v", binary), func(b *testing.B) {
			c, _ := pushConn(b, binary, Config{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.reply("PONG")
			}
		})
	}
}

// BenchmarkConnPush reports the cost of one pushed frame through the
// default 256-message queue to a loopback peer that discards: the
// append under the lock, the writer's wake-up and its share of a
// write. A guard, not a headline.
func BenchmarkConnPush(b *testing.B) {
	for _, binary := range []bool{false, true} {
		b.Run(fmt.Sprintf("binary=%v", binary), func(b *testing.B) {
			c, ids := pushConn(b, binary, Config{})
			names := brokerNames(c, ids)
			ev := tick()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(names)
				c.pushEvent(names[k:k+1], ev)
			}
		})
	}
}
