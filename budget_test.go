package eventdb

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"eventdb/internal/core"
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
