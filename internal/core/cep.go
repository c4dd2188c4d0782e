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

	mu  sync.Mutex  // guards nfa, started
	nfa *cep.Shared // its patterns are the registry: names and specs

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
		gcInterval: cfg.CEPAdvanceInterval,
	}
	if c.gcInterval <= 0 {
		c.gcInterval = defaultCEPGCInterval
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

// registerPattern is RegisterPattern under regMu. The name is copied,
// so the pattern keeps no caller's buffer alive. The catalogue row is
// written before c.mu is taken: a commit can deliver trigger-captured
// events inline, and those reach observe, which takes c.mu.
func (e *Engine) registerPattern(name string, spec []byte) error {
	p, err := cep.ParseSpec(strings.Clone(name), spec)
	if err != nil {
		return err
	}
	if e.hasPattern(name) {
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
	c.active.Add(1)
	c.ensureStarted()
	return nil
}

// UnregisterPattern removes a registered pattern and its catalogue row.
// Returns ErrNoPattern for unknown names.
func (e *Engine) UnregisterPattern(name string) error {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	if !e.hasPattern(name) {
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
	c.active.Add(-1)
	return nil
}

// Patterns returns the registered pattern names, sorted.
func (e *Engine) Patterns() []string {
	c := e.cep
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nfa.Names()
}

// hasPattern reports whether a pattern of that name is registered.
func (e *Engine) hasPattern(name string) bool {
	c := e.cep
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.nfa.Pattern(name)
	return ok
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
