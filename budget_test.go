package eventdb

import (
	"fmt"
	"runtime"
	"testing"

	"eventdb/internal/core"
	"eventdb/internal/pubsub"
	"eventdb/internal/raceflag"
)

// Registration budgets (ROADMAP item 24): the live heap one standing
// condition costs, registered in process through core at the shapes of
// E23's selective workload (bench/selective.go). Each ceiling is the
// measured cost plus 5%; a change that lowers a cost lowers its ceiling
// with it, and raising one is a check change with its reason.
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
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
