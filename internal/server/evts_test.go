package server

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/frame"
)

// Tests for the grouped push: under HELLO 3 an event that matched
// several SUBs of a connection crosses the wire once, as one Evts frame,
// and every subscription sees what it saw as one Evt frame each.

// frameConn is a binary connection at a chosen HELLO version, below the
// client library: it records each subscription's pushes by their seq
// attribute, whichever frame carried them.
type frameConn struct {
	t    *testing.T
	nc   net.Conn
	fr   *frame.Reader
	got  map[string][]int64
	evts int // Evts frames read
}

func frameDial(t *testing.T, srv *Server, version int) *frameConn {
	t.Helper()
	nc, br := wireDial(t, srv)
	sendLine(t, nc, fmt.Sprintf("HELLO %d", version))
	if got, want := readLine(t, br), fmt.Sprintf("OK %d", version); got != want {
		t.Fatalf("HELLO %d → %q, want %q", version, got, want)
	}
	return &frameConn{t: t, nc: nc, fr: frame.NewReader(br), got: map[string][]int64{}}
}

// ask sends one command and returns its reply, recording the pushes
// read before it.
func (f *frameConn) ask(cmd string) string {
	f.t.Helper()
	if _, err := f.nc.Write(frame.AppendFrameString(nil, frame.Cmd, cmd)); err != nil {
		f.t.Fatal(err)
	}
	f.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	var ids [][]byte
	for {
		typ, p, err := f.fr.Next()
		if err != nil {
			f.t.Fatalf("%s: %v", cmd, err)
		}
		var body []byte
		ok := true
		ids = ids[:0]
		switch typ {
		case frame.Reply:
			return string(p)
		case frame.Evt:
			var id string
			id, body, ok = frame.DecodeEvt(p)
			ids = append(ids, []byte(id))
		case frame.Evts:
			ids, body, ok = frame.DecodeEvts(p, ids)
			f.evts++
		default:
			f.t.Fatalf("%s: unexpected %s frame", cmd, typ)
		}
		ev, err := event.UnmarshalJSONEvent(body)
		if !ok || err != nil {
			f.t.Fatalf("%s: malformed %s frame %q (%v)", cmd, typ, p, err)
		}
		seq, _ := ev.Attrs["seq"].AsInt()
		for _, id := range ids {
			f.got[string(id)] = append(f.got[string(id)], seq)
		}
	}
}

// TestGroupedPushDifferential: one seeded sequence of SUBs, UNSUBs and
// publishes, applied alike to a HELLO 2 and a HELLO 3 connection, gives
// every subscription the same events in the same order on both, while
// only the HELLO 3 one receives Evts frames; and each PUB's OK still
// counts one delivery per subscription.
func TestGroupedPushDifferential(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{SubBuffer: 4096})
	v2, v3 := frameDial(t, srv, 2), frameDial(t, srv, 3)
	pub := rawDial(t, srv)
	rng := rand.New(rand.NewSource(62))
	filters := []string{"", "", "n > 4", "k = 'a'", "n < 3 OR k = 'b'", "n >= 2 AND n <= 7"}
	live := map[string]bool{}
	counted := 0
	for step := 0; step < 800; step++ {
		if rng.Intn(5) == 0 {
			id := fmt.Sprintf("s%d", rng.Intn(12))
			cmd := "UNSUB " + id
			if !live[id] {
				cmd = strings.TrimSpace(fmt.Sprintf("SUB %s %s", id, filters[rng.Intn(len(filters))]))
			}
			live[id] = !live[id]
			for _, c := range []*frameConn{v2, v3} {
				if got := c.ask(cmd); got != "OK" {
					t.Fatalf("%s → %q", cmd, got)
				}
			}
			continue
		}
		reply := pub.ask(fmt.Sprintf(`PUB {"type":"t","attrs":{"seq":%d,"n":%d,"k":%q}}`,
			step, rng.Intn(10), string(rune('a'+rng.Intn(3)))))
		var n int
		if _, err := fmt.Sscanf(reply, "OK %d", &n); err != nil || n%2 != 0 {
			t.Fatalf("PUB → %q", reply)
		}
		counted += n
	}
	pushed := 0
	for _, c := range []*frameConn{v2, v3} {
		if got := c.ask("PING"); got != "PONG" {
			t.Fatalf("PING → %q", got)
		}
		for _, seqs := range c.got {
			pushed += len(seqs)
		}
	}
	if !reflect.DeepEqual(v2.got, v3.got) {
		t.Errorf("HELLO 2 and HELLO 3 subscriptions saw different events:\n%v\n%v", v2.got, v3.got)
	}
	if v2.evts != 0 || v3.evts == 0 {
		t.Errorf("Evts frames: %d on HELLO 2, %d on HELLO 3", v2.evts, v3.evts)
	}
	if pushed != counted || pushed == 0 {
		t.Errorf("PUB replies counted %d deliveries, the connections received %d", counted, pushed)
	}
}

// TestGroupedPushOrderUnderChurn: the 16 SUBs of one HELLO 3 connection
// each see every event of one publisher, in admission order, while
// another connection subscribes and unsubscribes; and the connection is
// sent about one frame per event, not sixteen.
func TestGroupedPushOrderUnderChurn(t *testing.T) {
	const events = 2000
	_, srv := startServer(t, core.Config{}, Config{})
	recvConn := dialWith(t, srv, client.WithBinary())
	subs := make([]*client.Subscription, fanSubs)
	for i := range subs {
		s, err := recvConn.Subscribe(fmt.Sprintf("f%d", i), "", events)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	churn := dialWith(t, srv, client.WithBinary())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s, err := churn.Subscribe(fmt.Sprintf("x%d", i%3), "", 1)
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.Close(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	pub := dialWith(t, srv)
	for k := 0; k < events; k += 50 {
		batch := make([]*client.Event, 50)
		for j := range batch {
			batch[j] = event.New("e", map[string]any{"seq": k + j})
		}
		if _, err := pub.PublishBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for i, s := range subs {
		for want := int64(0); want < events; want++ {
			if got := attrInt(recv(t, s), "seq"); got != want {
				t.Fatalf("f%d: event %d has seq %d", i, want, got)
			}
		}
	}
	st, err := recvConn.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent >= 2*events {
		t.Errorf("%d events to %d SUBs took %d messages, want about one each", events, fanSubs, st.Sent)
	}
}
