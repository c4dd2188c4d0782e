package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"regexp"
	"strings"
	"testing"

	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/frame"
	"eventdb/internal/raceflag"
	"eventdb/internal/vfs"
)

// Tests for the publish path: the five ways an event's bytes arrive are
// one door, the Pub frame costs what it cost before they were, and the
// PUBT ledger forgets the right session.

// pubDoor is one way of sending a publish. open connects (negotiating
// lowprio when asked) and returns ask, which publishes one body and
// returns the reply, and ping, which checks the connection is still in
// sync with the server.
type pubDoor struct {
	name  string
	verb  string // the name a refusal carries
	batch bool   // bad JSON is reported by position
	open  func(t *testing.T, srv *Server, lowprio bool) (ask func(body string) string, ping func() string)
}

func textDoor(request func(body string) string) func(*testing.T, *Server, bool) (func(string) string, func() string) {
	return func(t *testing.T, srv *Server, lowprio bool) (func(string) string, func() string) {
		r := rawDial(t, srv)
		if lowprio {
			if got := r.ask("HELLO 1 lowprio"); got != "OK 1 lowprio" {
				t.Fatalf("HELLO 1 lowprio → %q", got)
			}
		}
		return func(body string) string { return r.ask(request(body)) },
			func() string { return r.ask("PING") }
	}
}

func binaryDoor(request func(body string) []byte) func(*testing.T, *Server, bool) (func(string) string, func() string) {
	return func(t *testing.T, srv *Server, lowprio bool) (func(string) string, func() string) {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		br := bufio.NewReader(nc)
		hello, want := "HELLO 2", "OK 2"
		if lowprio {
			hello, want = "HELLO 2 lowprio", "OK 2 lowprio"
		}
		sendLine(t, nc, hello)
		if got := readLine(t, br); got != want {
			t.Fatalf("%s → %q", hello, got)
		}
		fr := frame.NewReader(br)
		ask := func(req []byte) string {
			if _, err := nc.Write(req); err != nil {
				t.Fatal(err)
			}
			typ, payload, err := fr.Next()
			if err != nil || typ != frame.Reply {
				t.Fatalf("reply: %s %q, %v", typ, payload, err)
			}
			return string(payload)
		}
		return func(body string) string { return ask(request(body)) },
			func() string { return ask(frame.AppendFrameString(nil, frame.Cmd, "PING")) }
	}
}

var pubDoors = []pubDoor{
	{name: "PUB line", verb: "PUB", open: textDoor(func(body string) string { return "PUB " + body })},
	{name: "PUB in a Cmd frame", verb: "PUB", open: binaryDoor(func(body string) []byte {
		return frame.AppendFrameString(nil, frame.Cmd, "PUB "+body)
	})},
	{name: "Pub frame", verb: "PUB", open: binaryDoor(func(body string) []byte {
		return frame.AppendFrameString(nil, frame.Pub, body)
	})},
	{name: "PUBT", verb: "PUBT", open: textDoor(func(body string) string { return "PUBT door 1 " + body })},
	{name: "PUBB of one", verb: "PUBB", batch: true, open: textDoor(func(body string) string { return "PUBB 1\n" + body })},
}

// TestPublishDoorsAgree: whichever way one event's bytes come in — PUB
// as a text line, PUB in a Cmd frame, the Pub frame, PUBT, a PUBB of
// one — the reply is the same on success, and on a read-only follower,
// a degraded engine, a shed lowprio connection and bad JSON it is the
// same code and message (under the verb's own name, and by position in
// a batch), with the connection still in step afterwards.
func TestPublishDoorsAgree(t *testing.T) {
	const good = `{"type":"tick","attrs":{"n":1}}`
	const bad = `{"type":"tick","attrs":`
	_, badErr := event.UnmarshalJSONEvent([]byte(bad))
	if badErr == nil {
		t.Fatal("the bad body decodes")
	}
	digits := regexp.MustCompile(`[0-9]+`)

	cases := []struct {
		name    string
		body    string
		lowprio bool
		start   func(t *testing.T) (*core.Engine, *Server)
		want    func(d pubDoor, eng *core.Engine) string
	}{
		{name: "success", body: good,
			start: func(t *testing.T) (*core.Engine, *Server) {
				eng, srv := startServer(t, core.Config{}, Config{})
				rawDial(t, srv).mustOK("SUB all")
				return eng, srv
			},
			want: func(pubDoor, *core.Engine) string { return "OK 1" }},
		{name: "read-only follower", body: good,
			start: func(t *testing.T) (*core.Engine, *Server) {
				eng, srv := startServer(t, core.Config{}, Config{})
				eng.SetReadOnly(true)
				return eng, srv
			},
			want: func(d pubDoor, _ *core.Engine) string {
				return "ERR readonly " + d.verb + " refused: this node is a read-only follower (PROMOTE to enable writes)"
			}},
		{name: "degraded engine", body: good,
			start: func(t *testing.T) (*core.Engine, *Server) {
				fsys := vfs.NewFaulty(nil)
				eng, srv := startServer(t, core.Config{Dir: t.TempDir(), SyncEvery: 1, FS: fsys}, Config{})
				r := rawDial(t, srv)
				r.mustOK(`TABLE {"name":"rows","columns":[{"name":"a","kind":"int","notnull":true}]}`)
				fsys.FailSyncsAfter(0, errors.New("injected EIO"))
				r.ask(`INSERT rows {"a": 1}`)
				if deg, _ := eng.Degraded(); !deg {
					t.Fatal("engine not degraded after the fsync fault")
				}
				return eng, srv
			},
			want: func(d pubDoor, eng *core.Engine) string {
				_, cause := eng.Degraded()
				return "ERR degraded " + d.verb + " refused: storage fail-stopped (" + cause + "); RECOVER to resume"
			}},
		{name: "shed lowprio connection", body: good, lowprio: true,
			start: func(t *testing.T) (*core.Engine, *Server) {
				return startServer(t, core.Config{ShedMemoryBytes: 1}, Config{})
			},
			want: func(d pubDoor, _ *core.Engine) string {
				return "ERR limit " + d.verb + " shed: heap N bytes over limit N (low-priority ingest refused under overload)"
			}},
		{name: "bad JSON", body: bad,
			start: func(t *testing.T) (*core.Engine, *Server) {
				return startServer(t, core.Config{}, Config{})
			},
			want: func(d pubDoor, _ *core.Engine) string {
				if d.batch {
					return "ERR badjson event N: " + digits.ReplaceAllString(badErr.Error(), "N")
				}
				return "ERR badjson " + digits.ReplaceAllString(badErr.Error(), "N")
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, srv := tc.start(t)
			for _, d := range pubDoors {
				ask, ping := d.open(t, srv, tc.lowprio)
				got := ask(tc.body)
				if strings.HasPrefix(got, "ERR ") {
					// The heap size in a shed and the offset in a decode error
					// are not the door's to agree on.
					got = digits.ReplaceAllString(got, "N")
				}
				if want := tc.want(d, eng); got != want {
					t.Errorf("%s:\n got %q\nwant %q", d.name, got, want)
				}
				if got := ping(); got != "PONG" {
					t.Errorf("%s: PING afterwards → %q", d.name, got)
				}
			}
		})
	}
}

// TestAllocsPubFrame: a Pub frame through publish — decode, match, 16
// pushes, the reply — allocates the event and its copy of the payload
// and nothing else: the event's attributes are offsets into that copy
// (no map; see TestAllocsDecodedTickGet), and the payload the 16 pushes
// share is that copy, which is never encoded again. The same holds on
// HELLO 3, where the 16 pushes are one Evts frame.
func TestAllocsPubFrame(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, version := range []int{2, 3} {
		c, _ := helloConn(t, version, Config{SubBuffer: 1 << 20})
		payload, err := tick().EncodedJSON()
		if err != nil {
			t.Fatal(err)
		}
		pub := func() { publishFrame(c, payload) }
		for i := 0; i < 100; i++ { // grow the outbound buffers to their working size
			pub()
		}
		// 2; 4 while the decoder built each event's attribute map.
		if allocs := testing.AllocsPerRun(500, pub); allocs > 2 {
			t.Errorf("HELLO %d: a Pub frame to %d sinks allocates %v, want <= 2", version, fanSubs, allocs)
		}
	}
}

// TestPubTLedgerEvictsLeastRecentlyUsed: a full ledger makes room for a
// new session by forgetting the one idle longest — it used to refuse
// every new session with ERR limit until the daemon restarted — and a
// session in use keeps its dedupe state through the turnover.
func TestPubTLedgerEvictsLeastRecentlyUsed(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{})
	r := rawDial(t, srv)
	const ev = `{"type":"a","attrs":{}}`
	if got := r.ask("PUBT live 1 " + ev); got != "OK 0" {
		t.Fatalf("live session, seq 1: %q", got)
	}
	for i := 1; i < maxPubTSessions; i++ {
		if got := r.ask(fmt.Sprintf("PUBT s%d 1 %s", i, ev)); got != "OK 0" {
			t.Fatalf("session %d: %q", i, got)
		}
	}
	// The ledger is full and "live" is its oldest entry; using it again
	// makes s1 the least recently used.
	if got := r.ask("PUBT live 1 " + ev); got != "OK 0 dup" {
		t.Fatalf("live session, retry of seq 1 with the ledger full: %q", got)
	}
	if got := r.ask("PUBT newcomer 1 " + ev); got != "OK 0" {
		t.Fatalf("session %d: %q, want it to publish", maxPubTSessions+1, got)
	}
	if got := r.ask("PUBT live 1 " + ev); got != "OK 0 dup" {
		t.Errorf("live session lost its sequence to the eviction: %q", got)
	}
	if got := r.ask("PUBT newcomer 1 " + ev); got != "OK 0 dup" {
		t.Errorf("the new session does not dedupe: %q", got)
	}
	// s1 was the one forgotten: its old sequence publishes again.
	if got := r.ask("PUBT s1 1 " + ev); got != "OK 0" {
		t.Errorf("evicted session: %q", got)
	}
	if got, want := eng.Ingested(), uint64(maxPubTSessions+2); got != want {
		t.Errorf("ingested = %d, want %d", got, want)
	}
	if n := len(srv.pubt.sessions); n != maxPubTSessions {
		t.Errorf("ledger holds %d sessions, want %d", n, maxPubTSessions)
	}
}

// TestLongTextLines: a command line and a PUBB body line longer than
// the reader's 64 KiB buffer are put together whole, and the events
// they carry are pushed back byte for byte.
func TestLongTextLines(t *testing.T) {
	_, srv := startServer(t, core.Config{}, Config{})
	r := rawDial(t, srv)
	if got := r.ask("SUB all"); got != "OK" {
		t.Fatalf("SUB → %q", got)
	}
	big := func(typ string) string {
		ev := event.New(typ, map[string]any{"pad": strings.Repeat("0123456789", 20_000)})
		data, err := ev.EncodedJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	line, body := big("line"), big("body")
	if got := r.ask("PUB " + line); got != "OK 1" {
		t.Fatalf("a %d-byte PUB line → %q", len(line), got)
	}
	r.send("PUBB 2")
	r.send(body)
	if got := r.ask(`{"type":"short","attrs":{}}`); got != "OK 2" {
		t.Fatalf("a PUBB with a %d-byte body → %q", len(body), got)
	}
	if len(r.pushes) != 3 || r.pushes[0] != "EVT all "+line || r.pushes[1] != "EVT all "+body {
		t.Fatalf("pushed %d lines, want the two long events back as sent and the short one", len(r.pushes))
	}
}

// TestAllocsTextPub: a text PUB of E23's tick, from its command line to
// its reply, allocates the command line and the event, and nothing
// else: the event's copy of its body is the line, its attributes are
// offsets into it, the command is parsed into its connection's request
// and the reply allocates nothing.
func TestAllocsTextPub(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	_, srv := startServer(t, core.Config{}, Config{})
	r := rawDial(t, srv)
	payload, err := tick().EncodedJSON()
	if err != nil {
		t.Fatal(err)
	}
	line := append(append([]byte("PUB "), payload...), '\n')
	want := []byte("OK 0\n")
	got := make([]byte, len(want))
	pub := func() {
		if _, err := r.nc.Write(line); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(r.br, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("PUB → %q, %v", got, err)
		}
	}
	for i := 0; i < 20; i++ {
		pub()
	}
	// 2: the event and the line; 4 while the decoder built the event's
	// attribute map, 5 while each command allocated its request, 6 while
	// the body was also copied for the decoder to copy again.
	if allocs, want := testing.AllocsPerRun(200, pub), 2; allocs > float64(want) {
		t.Errorf("a text PUB allocates %v, want <= %d", allocs, want)
	}
}

// TestAllocsTextPubBatch: a text PUBB of 64 events, from its command
// line to its reply, allocates the events (two each: the event and its
// copy of its line, into which its attributes are offsets), the batch
// and the command line, and nothing per body line for reading it: the
// lines are read in place.
func TestAllocsTextPubBatch(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	_, srv := startServer(t, core.Config{}, Config{})
	r := rawDial(t, srv)
	payload, err := tick().EncodedJSON()
	if err != nil {
		t.Fatal(err)
	}
	batch := []byte("PUBB 64\n")
	for i := 0; i < 64; i++ {
		batch = append(append(batch, payload...), '\n')
	}
	want := []byte("OK 64\n")
	got := make([]byte, len(want))
	pub := func() {
		if _, err := r.nc.Write(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(r.br, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("PUBB 64 → %q, %v", got, err)
		}
	}
	for i := 0; i < 20; i++ {
		pub()
	}
	// 130; 258 while the decoder built each event's attribute map, 259
	// while each command allocated its request, 389 while each line was
	// read into a string and copied.
	if allocs, want := testing.AllocsPerRun(100, pub), 64*2+2; allocs > float64(want) {
		t.Errorf("a text PUBB of 64 events allocates %v, want <= %d", allocs, want)
	}
}
