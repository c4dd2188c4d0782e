package eventdb

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/frame"
	"eventdb/internal/pubsub"
	"eventdb/internal/raceflag"
	"eventdb/internal/server"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// Live-heap budgets (ROADMAP item 24): what one standing condition
// costs at the shapes of E23's selective workload (bench/selective.go),
// registered in process through core and sent as wire lines to a
// server, and what one sealed row of E23 dbmix's table costs (152 B
// while the row store kept a copy of every sealed row; 86 B once it
// handed them to their segments but kept their primary-key entries;
// 19 B since a run of ascending int keys is its rows' key index and a
// segment of contiguous row ids keeps no id vector). A registration
// cost 496 B (equality SUB), 472 B (range SUB), 2,409 B (PATTERN),
// 643 B (wire SUB) and 2,531 B (wire PATTERN) while a SUB was six
// records and a one-edge CEP state kept an index; 392, 375, 1,110, 447
// and 1,100 B since a SUB is one rule record whose handle is its target
// and a state indexes its edges from its second one; and 376, 359 and
// 336 B (equality, range and wire SUB) since a rule is 96 B, not 112,
// and a wire SUB is its broker rule alone: no connection map entry, no
// sink object, and no copy of its command line; and 320 B (wire SUB)
// since a rule keeps its condition's atoms and no empty predicate
// around them (an 80-byte rule; a rule that keeps its source, as
// through core, adds it back in 16 bytes). Each ceiling is
// the measured cost plus 5%; a change that lowers a cost lowers its
// ceiling with it, and raising one is a check change with its reason.
// Beside them, one byte budget: what a fanout event puts on the wire.
func TestBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap sizes are inflated under -race")
	}
	const n = 3000
	nop := func(pubsub.Delivery) {}
	subFilter := func(i int) string {
		if i%10 == 9 { // selective files one range SUB to nine equality ones
			return fmt.Sprintf("qty >= %d AND qty < %d", 1000+i, 1001+i)
		}
		return fmt.Sprintf("sym = 'SYM%04d' AND qty >= %d", i/3, i%3*400)
	}
	patternSpec := func(i int) string {
		return fmt.Sprintf(`{"steps":[{"alias":"a","type":"order","guard":"desk = %d"},`+
			`{"alias":"b","type":"fill","guard":"cid = a.cid"}],"within":"1s"}`, i)
	}
	for _, tc := range []struct {
		name    string
		ceiling float64 // bytes per registration
		add     func(e *core.Engine, i int) error
		line    func(i int) string // sent over the wire instead, when set
	}{
		{"equality SUB", 395, func(e *core.Engine, i int) error {
			return e.Subscribe(fmt.Sprintf("s%d", i), "conn1",
				fmt.Sprintf("sym = 'SYM%04d' AND qty >= %d", i/3, i%3*400), nop)
		}, nil},
		{"range SUB", 377, func(e *core.Engine, i int) error {
			return e.Subscribe(fmt.Sprintf("s%d", i), "conn1",
				fmt.Sprintf("qty >= %d AND qty < %d", 1000+i, 1001+i), nop)
		}, nil},
		{"PATTERN", 1170, func(e *core.Engine, i int) error {
			return e.RegisterPattern(fmt.Sprintf("p%d", i), []byte(patternSpec(i)))
		}, nil},
		{"wire SUB", 336, nil, func(i int) string { return fmt.Sprintf("SUB s%d %s", i, subFilter(i)) }},
		{"wire PATTERN", 1160, nil, func(i int) string { return fmt.Sprintf("PATTERN p%d %s", i, patternSpec(i)) }},
	} {
		var per float64
		if tc.line != nil {
			per = wireHeap(t, n, tc.line)
		} else {
			per = coreHeap(t, n, tc.add)
		}
		t.Logf("%s: %.0f B each (ceiling %.0f)", tc.name, per, tc.ceiling)
		if per > tc.ceiling {
			t.Errorf("%s costs %.0f B each, over its ceiling of %.0f", tc.name, per, tc.ceiling)
		}
	}

	// What E23 fanout's receiving connection (bench/fanout.go: 16
	// match-all SUBs, binary wire) is sent for one of its ticks: one Evts
	// frame under HELLO 3 (284 B, a 226-byte JSON), where HELLO 2 sends
	// the JSON once per SUB (3,716 B). Bytes on the wire do not drift with
	// the host, so the ceiling is the measured 284 B plus 2%.
	const fanoutCeiling = 290
	wire2, wire3 := fanoutWireBytes(t, 2), fanoutWireBytes(t, 3)
	t.Logf("wire bytes per fanout event: %.0f B on HELLO 3 (ceiling %d), %.0f B on HELLO 2", wire3, fanoutCeiling, wire2)
	if wire3 > fanoutCeiling {
		t.Errorf("a fanout event costs %.0f B on the wire, over its ceiling of %d", wire3, fanoutCeiling)
	}

	// A row of E23 dbmix's table (bench/dbmix.go) once its history is
	// sealed: what the row store, the primary key and the columnar
	// segment keep of it together — its segment's columns alone, as its
	// key is its run's key column and its id the run's position.
	const rowCeiling = 20
	per := dbmixRowHeap(t)
	t.Logf("dbmix row: %.0f B each (ceiling %.0f)", per, float64(rowCeiling))
	if per > rowCeiling {
		t.Errorf("a sealed dbmix row costs %.0f B, over its ceiling of %d", per, rowCeiling)
	}
}

// coreHeap registers n standing conditions through core and returns the
// live heap each costs.
func coreHeap(t *testing.T, n int, add func(e *core.Engine, i int) error) float64 {
	e, err := core.Open(core.Config{ColumnarDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	before := liveHeap()
	for i := 0; i < n; i++ {
		if err := add(e, i); err != nil {
			t.Fatal(err)
		}
	}
	per := float64(liveHeap()-before) / float64(n)
	runtime.KeepAlive(e)
	return per
}

// wireHeap sends n registration lines to an in-process server over a raw
// socket, one at a time, each answered OK, and returns the live heap
// each costs: the server's share (its sinks, names and what a kept
// string pins) with the engine's, and no client library's.
func wireHeap(t *testing.T, n int, line func(i int) string) float64 {
	e, err := core.Open(core.Config{ColumnarDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv, err := server.StartConfig(e, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	send := func(l, want string) {
		if _, err := io.WriteString(nc, l+"\n"); err != nil {
			t.Fatal(err)
		}
		if got, err := br.ReadString('\n'); err != nil || got != want+"\n" {
			t.Fatalf("%.40s: reply %q (%v), want %s", l, got, err, want)
		}
	}
	send("PING", "PONG")
	before := liveHeap()
	for i := 0; i < n; i++ {
		send(line(i), "OK")
	}
	per := float64(liveHeap()-before) / float64(n)
	runtime.KeepAlive(srv)
	return per
}

// fanoutWireBytes returns the bytes an in-process server writes, per
// tick of E23's shape (bench/ticks.go) published on another connection,
// to a connection that negotiated HELLO version and holds 16 match-all
// SUBs: every frame it reads before the reply to a PING sent after the
// ticks.
func fanoutWireBytes(t *testing.T, version int) float64 {
	const ticks, subs = 20, 16
	e, err := core.Open(core.Config{ColumnarDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv, err := server.StartConfig(e, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() (net.Conn, *bufio.Reader) {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(30 * time.Second))
		return nc, bufio.NewReader(nc)
	}
	line := func(nc net.Conn, br *bufio.Reader, l, want string) {
		io.WriteString(nc, l+"\n")
		if got, err := br.ReadString('\n'); err != nil || got != want+"\n" {
			t.Fatalf("%.40s: reply %q (%v), want %s", l, got, err, want)
		}
	}
	sub, sbr := dial()
	defer sub.Close()
	line(sub, sbr, fmt.Sprintf("HELLO %d", version), fmt.Sprintf("OK %d", version))
	fr := frame.NewReader(sbr)
	// wire reads frames up to the reply to cmd and returns that reply
	// and the bytes of the frames before it.
	wire := func(cmd string) (reply string, bytes int) {
		sub.Write(frame.AppendFrameString(nil, frame.Cmd, cmd))
		for {
			typ, p, err := fr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if typ == frame.Reply {
				return string(p), bytes
			}
			bytes += len(frame.AppendFrame(nil, typ, p))
		}
	}
	for i := 0; i < subs; i++ {
		if reply, _ := wire(fmt.Sprintf("SUB f%d", i)); reply != "OK" {
			t.Fatalf("SUB f%d: %q", i, reply)
		}
	}
	pub, pbr := dial()
	defer pub.Close()
	pad := strings.Repeat("p", 100)
	for k := 0; k < ticks; k++ {
		ev := &event.Event{ID: event.ID(k + 1), Type: "tick", Time: time.Date(2026, 10, 21, 12, 0, 0, 123456789, time.UTC),
			Attrs: map[string]val.Value{"seq": val.Int(int64(k)), "sym": val.String(fmt.Sprintf("SYM%04d", k*37%6000)),
				"qty": val.Int(int64(k * 7 % 1000)), "px": val.Int(int64(k * 9973 % 100000)), "pad": val.String(pad)}}
		body, err := ev.EncodedJSON()
		if err != nil {
			t.Fatal(err)
		}
		line(pub, pbr, "PUB "+string(body), fmt.Sprintf("OK %d", subs))
	}
	reply, n := wire("PING")
	if reply != "PONG" {
		t.Fatalf("PING: %q", reply)
	}
	return float64(n) / ticks
}

// dbmixRowHeap inserts 100 k rows of dbmix's shape through core, 1,000
// per commit, compacts the table, and returns the live heap per row.
func dbmixRowHeap(t *testing.T) float64 {
	const rows = 100_000
	e, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	before := liveHeap()
	s, err := storage.NewSchema("trades", []storage.Column{
		{Name: "seq", Kind: val.KindInt}, {Name: "ts", Kind: val.KindTime},
		{Name: "sym", Kind: val.KindString}, {Name: "qty", Kind: val.KindInt},
		{Name: "px", Kind: val.KindInt},
	}, "seq")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DB.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(1))
	for start := 0; start < rows; start += 1000 {
		txn := e.DB.Begin()
		for seq := start; seq < start+1000; seq++ {
			txn.InsertRow("trades", storage.Row{val.Int(int64(seq)), val.Time(epoch.Add(time.Duration(seq) * time.Second)),
				val.String(fmt.Sprintf("S%02d", rng.Intn(50))), val.Int(rng.Int63n(1000)), val.Int(rng.Int63n(10000))})
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Compact("trades"); err != nil {
		t.Fatal(err)
	}
	per := float64(liveHeap()-before) / rows
	runtime.KeepAlive(e)
	return per
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
