// Engine-level pattern registry: the shared CEP automaton wired into
// the ingest path. Every evaluated event is observed by the automaton;
// completed matches re-enter the engine as "cep.<pattern>" composite
// events through the capture path, so subscriptions, continuous
// queries, durable queues, and triggers all see them like any other
// event.
//
// The automaton is single-threaded, so it feeds inline under one mutex
// on the goroutine that evaluated the event: the publisher's, or a
// capture path's. A clock goroutine advances the WITHIN horizon on
// quiet streams so dead partial matches don't pin memory until the next
// event happens to arrive.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eventdb/internal/cep"
	"eventdb/internal/event"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// Pattern registry errors, distinguished so the wire layer can answer
// with its stable dup/nopattern codes.
var (
	ErrPatternExists = errors.New("core: pattern already registered")
	ErrNoPattern     = errors.New("core: no such pattern")
)

const defaultCEPGCInterval = 500 * time.Millisecond

// PatternStats is a snapshot of the pattern registry's counters.
type PatternStats struct {
	Registered int    // registered patterns
	Instances  int    // live partial matches
	Matches    uint64 // composite events emitted
	Pruned     uint64 // partials expired by the WITHIN horizon
	Dropped    uint64 // partials evicted by the instance cap
}

// cepRegistry owns the shared automaton and its horizon clock.
type cepRegistry struct {
	e *Engine

	mu    sync.Mutex // guards nfa, specs, table, started
	nfa   *cep.Shared
	specs map[string][]byte
	table string // persistence table; "" until AttachPatternStore

	// active gates the per-event observe hook: the common case of an
	// engine with no patterns costs one atomic load per event.
	active atomic.Int64

	started    bool
	quit       chan struct{}
	wg         sync.WaitGroup
	gcInterval time.Duration
}

func newCEPRegistry(e *Engine, cfg Config) *cepRegistry {
	c := &cepRegistry{
		e:          e,
		nfa:        cep.NewShared(),
		specs:      make(map[string][]byte),
		gcInterval: cfg.CEPAdvanceInterval,
	}
	if c.gcInterval <= 0 {
		c.gcInterval = defaultCEPGCInterval
	}
	if cfg.CEPMaxInstances > 0 {
		c.nfa.MaxInstances = cfg.CEPMaxInstances
	}
	return c
}

// ensureStarted launches the horizon-GC goroutine on first
// registration, so engines that never use patterns never pay for it.
// Caller holds c.mu.
func (c *cepRegistry) ensureStarted() {
	if c.started {
		return
	}
	c.started = true
	c.quit = make(chan struct{})
	c.wg.Add(1)
	go c.runGC()
}

func (c *cepRegistry) close() {
	c.mu.Lock()
	started := c.started
	c.started = false
	c.mu.Unlock()
	if started {
		close(c.quit)
		c.wg.Wait()
	}
}

// observe feeds one evaluated event to the pattern automaton, on the
// goroutine that evaluated it. Composite "cep." events are not re-fed —
// patterns over raw events only, so a pattern can never feed itself.
// Matches materialize into events under the lock — the automaton reuses
// its match slice — and re-enter ingest after it is released, so a
// match's own cascade can re-enter observe safely.
func (c *cepRegistry) observe(ev *event.Event) {
	if c.active.Load() == 0 || strings.HasPrefix(ev.Type, "cep.") {
		return
	}
	var outs []*event.Event
	c.mu.Lock()
	for _, m := range c.nfa.Feed(ev) {
		outs = append(outs, m.Event())
	}
	c.mu.Unlock()
	for _, out := range outs {
		if _, err := c.e.ingestSync(out); err != nil {
			c.e.Metrics.Counter("ingest.errors").Inc()
		}
	}
}

// runGC advances the WITHIN horizon on the engine clock, pruning stale
// partial matches between events.
func (c *cepRegistry) runGC() {
	defer c.wg.Done()
	t := time.NewTicker(c.gcInterval)
	defer t.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C:
			c.e.AdvancePatternHorizon(time.Now())
		}
	}
}

// RegisterPattern compiles a JSON pattern spec (see cep.ParseSpec) and
// registers it in the shared automaton. The binding persists in the
// pattern store when one is attached, surviving restarts. Returns
// ErrPatternExists for duplicate names.
func (e *Engine) RegisterPattern(name string, spec []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	p, err := cep.ParseSpec(name, spec)
	if err != nil {
		return err
	}
	c := e.cep
	c.mu.Lock()
	if _, dup := c.specs[name]; dup {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrPatternExists, name)
	}
	if err := c.nfa.Add(p); err != nil {
		c.mu.Unlock()
		return err
	}
	c.specs[name] = append([]byte(nil), spec...)
	c.active.Add(1)
	c.ensureStarted()
	table := c.table
	c.mu.Unlock()
	if table != "" {
		if err := c.persist(name, spec); err != nil {
			// Roll the in-memory registration back: a binding that
			// claimed durability but would vanish on restart is worse
			// than a clean failure.
			c.mu.Lock()
			c.nfa.Remove(name)
			delete(c.specs, name)
			c.active.Add(-1)
			c.mu.Unlock()
			return err
		}
	}
	return nil
}

// UnregisterPattern removes a registered pattern and its persisted
// binding. Returns ErrNoPattern for unknown names.
func (e *Engine) UnregisterPattern(name string) error {
	c := e.cep
	c.mu.Lock()
	if _, ok := c.specs[name]; !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoPattern, name)
	}
	if err := c.nfa.Remove(name); err != nil {
		c.mu.Unlock()
		return err
	}
	delete(c.specs, name)
	c.active.Add(-1)
	table := c.table
	c.mu.Unlock()
	if table != "" {
		return c.unpersist(name)
	}
	return nil
}

// Patterns returns the registered pattern names, sorted.
func (e *Engine) Patterns() []string {
	c := e.cep
	c.mu.Lock()
	names := make([]string, 0, len(c.specs))
	for name := range c.specs {
		names = append(names, name)
	}
	c.mu.Unlock()
	sort.Strings(names)
	return names
}

// PatternSpec returns a registered pattern's JSON spec.
func (e *Engine) PatternSpec(name string) ([]byte, bool) {
	c := e.cep
	c.mu.Lock()
	defer c.mu.Unlock()
	spec, ok := c.specs[name]
	return spec, ok
}

// PatternStats snapshots the registry's counters (for STATS).
func (e *Engine) PatternStats() PatternStats {
	c := e.cep
	c.mu.Lock()
	st := c.nfa.Stats()
	c.mu.Unlock()
	return PatternStats{
		Registered: st.Patterns,
		Instances:  st.Instances,
		Matches:    st.Matches,
		Pruned:     st.Pruned,
		Dropped:    st.Dropped,
	}
}

// AdvancePatternHorizon prunes partial matches whose WITHIN window has
// passed as of now, returning how many. The engine clock calls this on
// a cadence (Config.CEPAdvanceInterval); tests call it directly with an
// injected clock.
func (e *Engine) AdvancePatternHorizon(now time.Time) int {
	c := e.cep
	c.mu.Lock()
	n := c.nfa.Advance(now)
	c.mu.Unlock()
	return n
}

// PatternsTableSchema returns the schema used to persist pattern
// bindings: one row per pattern, the spec as it arrived on the wire.
func PatternsTableSchema(table string) (*storage.Schema, error) {
	return storage.NewSchema(table, []storage.Column{
		{Name: "name", Kind: val.KindString, NotNull: true},
		{Name: "spec", Kind: val.KindString, NotNull: true},
	}, "name")
}

// AttachPatternStore persists pattern bindings in a database table
// (expressions as data, like the broker's subscription store) and
// reloads existing rows, re-registering each pattern. Reload skips
// names already registered, so attach-after-register is safe.
func (e *Engine) AttachPatternStore(table string) error {
	if _, ok := e.DB.Table(table); !ok {
		schema, err := PatternsTableSchema(table)
		if err != nil {
			return err
		}
		if err := e.DB.CreateTable(schema); err != nil {
			return err
		}
	}
	c := e.cep
	tbl, _ := e.DB.Table(table)
	var loadErr error
	tbl.Scan(func(_ storage.RowID, r storage.Row) bool {
		name, _ := r[0].AsString()
		spec, _ := r[1].AsString()
		c.mu.Lock()
		if _, dup := c.specs[name]; dup {
			c.mu.Unlock()
			return true
		}
		p, err := cep.ParseSpec(name, []byte(spec))
		if err == nil {
			err = c.nfa.Add(p)
		}
		if err != nil {
			loadErr = fmt.Errorf("core: pattern %q: %w", name, err)
			c.mu.Unlock()
			return false
		}
		c.specs[name] = []byte(spec)
		c.active.Add(1)
		c.ensureStarted()
		c.mu.Unlock()
		return true
	})
	if loadErr != nil {
		return loadErr
	}
	c.mu.Lock()
	c.table = table
	c.mu.Unlock()
	return nil
}

func (c *cepRegistry) persist(name string, spec []byte) error {
	_, err := c.e.DB.Insert(c.table, map[string]val.Value{
		"name": val.String(name),
		"spec": val.String(string(spec)),
	})
	return err
}

func (c *cepRegistry) unpersist(name string) error {
	tbl, ok := c.e.DB.Table(c.table)
	if !ok {
		return nil
	}
	if _, rid, ok := tbl.GetByPK(val.String(name)); ok {
		return c.e.DB.DeleteRow(c.table, rid)
	}
	return nil
}
