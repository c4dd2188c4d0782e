package eventdb

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"eventdb/internal/core"
	"eventdb/internal/pubsub"
	"eventdb/internal/raceflag"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// Live-heap budgets (ROADMAP item 24): what one standing condition
// costs, registered in process through core at the shapes of E23's
// selective workload (bench/selective.go), and what one sealed row of
// E23 dbmix's table costs (152 B while the row store kept a copy of
// every sealed row; 86 B once it handed them to their segments but kept
// their primary-key entries; 19 B since a run of ascending int keys is
// its rows' key index and a segment of contiguous row ids keeps no id
// vector). Each
// ceiling is the measured cost plus 5%; a change that lowers a cost
// lowers its ceiling with it, and raising one is a check change with
// its reason.
func TestBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap sizes are inflated under -race")
	}
	const n = 3000
	nop := func(pubsub.Delivery) {}
	for _, tc := range []struct {
		name    string
		ceiling float64 // bytes per registration
		add     func(e *core.Engine, i int) error
	}{
		{"equality SUB", 520, func(e *core.Engine, i int) error {
			return e.Subscribe(fmt.Sprintf("s%d", i), "conn1",
				fmt.Sprintf("sym = 'SYM%04d' AND qty >= %d", i/3, i%3*400), nop)
		}},
		{"range SUB", 495, func(e *core.Engine, i int) error {
			return e.Subscribe(fmt.Sprintf("s%d", i), "conn1",
				fmt.Sprintf("qty >= %d AND qty < %d", 1000+i, 1001+i), nop)
		}},
		{"PATTERN", 2530, func(e *core.Engine, i int) error {
			spec := fmt.Sprintf(`{"steps":[{"alias":"a","type":"order","guard":"desk = %d"},`+
				`{"alias":"b","type":"fill","guard":"cid = a.cid"}],"within":"1s"}`, i)
			return e.RegisterPattern(fmt.Sprintf("p%d", i), []byte(spec))
		}},
	} {
		e, err := core.Open(core.Config{ColumnarDisabled: true})
		if err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		for i := 0; i < n; i++ {
			if err := tc.add(e, i); err != nil {
				t.Fatal(err)
			}
		}
		per := float64(liveHeap()-before) / n
		runtime.KeepAlive(e)
		e.Close()
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
