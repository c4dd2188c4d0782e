package core

import (
	"time"

	"eventdb/internal/query"
)

// The watch scheduler drives capture path 3 (§2.2.a.iii) on a clock:
// each registered watch (Register of a KindWatch) polls its query differ
// on an interval, and result-set changes enter the ingest path as
// "query.<name>.<added|removed|changed>" events.

// defaultWatchInterval paces watches when Config.WatchInterval is zero.
const defaultWatchInterval = 100 * time.Millisecond

// watchEntry is one scheduled watched query.
type watchEntry struct {
	wq         *WatchedQuery
	interval   time.Duration
	stop, done chan struct{}
}

// startWatch installs a watch and starts its poll loop. Caller holds
// regMu.
func (e *Engine) startWatch(name string, q *query.Query, key []string, interval time.Duration) {
	w := &watchEntry{
		wq:       e.WatchQuery(name, q, key...),
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if e.watches == nil {
		e.watches = make(map[string]*watchEntry)
	}
	e.watches[name] = w
	go e.runWatch(w)
}

// runWatch is the per-watch poll loop. The first poll runs at once and
// reports the query's current rows as "added" events — the baseline a
// subscriber can reconcile against — and every later poll emits only
// the diffs. Poll errors (a dropped table, a broken predicate) are
// counted, not fatal: the watch keeps polling so a transiently missing
// table resumes capture when it reappears.
func (e *Engine) runWatch(w *watchEntry) {
	defer close(w.done)
	poll := func() {
		if _, err := w.wq.Poll(); err != nil {
			e.Metrics.Counter("watch.errors").Inc()
		}
	}
	poll() // baseline
	ticker := time.NewTicker(w.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			poll()
		case <-w.stop:
			return
		}
	}
}

// stopWatch cancels a watch and waits for its poll loop to exit, so no
// poll is in flight once it returns. Caller holds regMu, which it lets
// go while it waits: a poll's rule actions may register.
func (e *Engine) stopWatch(name string) {
	w := e.watches[name]
	delete(e.watches, name)
	close(w.stop)
	e.regMu.Unlock()
	defer e.regMu.Lock()
	<-w.done
}

// Watches returns the names of registered watches.
func (e *Engine) Watches() []string {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	out := make([]string, 0, len(e.watches))
	for n := range e.watches {
		out = append(out, n)
	}
	return out
}

// stopAllWatches cancels every watch (the Close path).
func (e *Engine) stopAllWatches() {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	for name := range e.watches {
		e.stopWatch(name)
	}
}
