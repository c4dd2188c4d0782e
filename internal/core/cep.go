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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eventdb/internal/cep"
	"eventdb/internal/event"
)

const defaultCEPGCInterval = 500 * time.Millisecond

// PatternStats is a snapshot of the pattern registry's counters.
type PatternStats = cep.SharedStats

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

// RegisterPattern is Register of a KindPattern: it compiles a JSON
// pattern spec (see cep.ParseSpec) into the shared automaton.
func (e *Engine) RegisterPattern(name string, spec []byte) error {
	return e.Register(KindPattern, name, spec)
}

// addPattern installs a compiled pattern. Caller holds regMu.
func (e *Engine) addPattern(p *cep.Pattern) error {
	c := e.cep
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.nfa.Add(p); err != nil {
		return err
	}
	c.active.Add(1)
	c.ensureStarted()
	return nil
}

// dropPattern removes a registered pattern. Caller holds regMu.
func (e *Engine) dropPattern(name string) {
	c := e.cep
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nfa.Remove(name) == nil {
		c.active.Add(-1)
	}
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
	defer c.mu.Unlock()
	return c.nfa.Stats()
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
