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

	mu    sync.Mutex // guards nfa, specs, started
	nfa   *cep.Shared
	specs map[string][]byte

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
// registers it in the shared automaton, and in the catalogue once
// RestoreRegistrations has run, so it survives restarts. Returns
// ErrPatternExists for duplicate names.
func (e *Engine) RegisterPattern(name string, spec []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.regMu.Lock()
	defer e.regMu.Unlock()
	return e.registerPattern(name, spec)
}

// registerPattern is RegisterPattern under regMu. The catalogue row is
// written before c.mu is taken: a commit can deliver trigger-captured
// events inline, and those reach observe, which takes c.mu.
func (e *Engine) registerPattern(name string, spec []byte) error {
	p, err := cep.ParseSpec(name, spec)
	if err != nil {
		return err
	}
	if _, dup := e.PatternSpec(name); dup {
		return fmt.Errorf("%w: %q", ErrPatternExists, name)
	}
	if err := e.putRegistration(kindPattern, name, string(spec)); err != nil {
		return err
	}
	c := e.cep
	c.mu.Lock()
	defer c.mu.Unlock()
	// Cannot fail: ParseSpec built p, and regMu holds the name free.
	if err := c.nfa.Add(p); err != nil {
		return err
	}
	c.specs[name] = append([]byte(nil), spec...)
	c.active.Add(1)
	c.ensureStarted()
	return nil
}

// UnregisterPattern removes a registered pattern and its catalogue row.
// Returns ErrNoPattern for unknown names.
func (e *Engine) UnregisterPattern(name string) error {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	if _, ok := e.PatternSpec(name); !ok {
		return fmt.Errorf("%w: %q", ErrNoPattern, name)
	}
	if err := e.dropRegistration(kindPattern, name); err != nil {
		return err
	}
	c := e.cep
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.nfa.Remove(name); err != nil {
		return err
	}
	delete(c.specs, name)
	c.active.Add(-1)
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
