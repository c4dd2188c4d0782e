package core

import (
	"testing"

	"eventdb/internal/raceflag"
)

// TestAllocsHealthGates is the zero-alloc guard for the self-protection
// checks that sit on the per-command dispatch path: every mutating verb
// consults Degraded(), and every low-priority publish consults
// Overloaded(). Both must allocate nothing in the common (healthy, not
// overloaded) case, with the heap watermark armed so the real probe
// code runs — otherwise the health plane itself would tax the ingest
// path it protects.
func TestAllocsHealthGates(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	eng, err := Open(Config{
		ShedMemoryBytes: 1 << 62, // armed, never exceeded
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Warm the cached heap probe so the periodic ReadMemStats refresh
	// is not attributed to a measured run.
	eng.Overloaded()

	allocs := testing.AllocsPerRun(500, func() {
		if deg, _ := eng.Degraded(); deg {
			t.Fatal("engine unexpectedly degraded")
		}
		if over, _ := eng.Overloaded(); over {
			t.Fatal("engine unexpectedly overloaded")
		}
	})
	if allocs != 0 {
		t.Errorf("health gates allocate %v per check, want 0", allocs)
	}
}
