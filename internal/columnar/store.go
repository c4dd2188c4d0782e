package columnar

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eventdb/internal/storage"
	"eventdb/internal/vfs"
	"eventdb/internal/wal"
)

// Config tunes a Manager.
type Config struct {
	// SealRows is the tail-row threshold at which the background
	// sealer encodes a table's tail into a segment. Defaults to
	// 8192. Seals always cut on whole-commit boundaries, so a segment
	// may slightly exceed this.
	SealRows int
	// SealInterval is the sealer's wake-up cadence. Defaults to 200ms.
	SealInterval time.Duration
	// Dir, when non-empty, persists sealed segments as files: a restart
	// reloads them instead of re-mining the WAL, and MineInserts reads
	// from them the history memory no longer holds. Files that fail
	// validation (partial write, CRC mismatch, schema drift, ahead of
	// the WAL) are discarded and their rows rebuilt from the WAL.
	Dir string
	// FS is the filesystem segment files are written through. Nil means
	// the real one. Segment files are a rebuildable cache of the WAL,
	// so an injected fault here surfaces as a persist error, not as
	// engine degradation.
	FS vfs.FS
}

func (c Config) withDefaults() Config {
	if c.SealRows <= 0 {
		c.SealRows = 8192
	}
	if c.SealRows < 64 {
		c.SealRows = 64
	}
	if c.SealInterval <= 0 {
		c.SealInterval = 200 * time.Millisecond
	}
	c.FS = vfs.Default(c.FS)
	return c
}

// registry maps a *storage.DB to its attached Manager so that layers
// that only hold a DB handle (query planner, journal miner) can find
// the columnar history without threading a manager through every call
// site.
var registry sync.Map // *storage.DB → *Manager

// Of returns the Manager attached to db, or nil.
func Of(db *storage.DB) *Manager {
	if m, ok := registry.Load(db); ok {
		return m.(*Manager)
	}
	return nil
}

// Manager owns the columnar history of one database: a TableStore per
// table, fed by the commit-hook stream, drained by a background
// sealer.
type Manager struct {
	db      *storage.DB
	cfg     Config
	durable bool

	mu     sync.RWMutex
	stores map[string]*TableStore

	// observed is the CommitInfo.Seq up to which every commit has been
	// folded into the stores. The hook stream is serial, so it has one
	// writer at a time.
	observed atomic.Uint64

	// Bootstrap buffering: commits that land while Attach is replaying
	// the WAL are buffered and drained afterwards (with LSN/row dedup),
	// so the hook can be registered before the replay without losing
	// or double-counting commits.
	bootMu  sync.Mutex
	booting bool
	bootBuf []*storage.CommitInfo

	errMu   sync.Mutex
	lastErr error

	removeHook func()
	kick       chan struct{}
	done       chan struct{}
	wg         sync.WaitGroup
	closeOnce  sync.Once
}

// TableStore holds one table's columnar history: sealed segments plus
// the unsealed columnar tail.
type TableStore struct {
	table  string
	schema *storage.Schema

	// sealMu serializes seal operations (background sealer vs forced
	// Compact); mu guards all mutable state below.
	sealMu sync.Mutex
	mu     sync.RWMutex

	// segs are the resident sealed segments, oldest first (row ids and
	// LSNs ascend). Memory holds what a scan can return: a segment stays
	// here only while it has a live row (see resident).
	segs []*Segment
	// released are the LSN spans of the segments that left memory, in
	// release order, and releasedSegs/releasedRows count them. Spans are
	// kept only on a durable database (durable), where MineInserts reads
	// them back from the segment file or the WAL.
	released                   []lsnSpan
	releasedSegs, releasedRows int
	durable                    bool

	tail *tail
	// modified holds the rows whose current version lives only in the
	// row store: they were updated after their insert was observed, so
	// any columnar copy of them is dead. Scans fetch them from the
	// table. An entry lasts until the row is deleted.
	modified     map[storage.RowID]struct{}
	maxSealedID  storage.RowID
	maxSealedLSN uint64
	maxGrp       uint64 // dedup guard: highest observed seal-group key
}

// lsnSpan is the WAL span a sealed segment covers.
type lsnSpan struct{ first, last uint64 }

// TableStats is the COMPACT/stats surface for one table. Segments,
// SealedRows and DeadRows count the sealed history, in memory or not;
// ResidentSegments and MemBytes are what memory holds, and ReleasedRows
// the sealed rows it no longer does (all of them dead).
type TableStats struct {
	Table            string `json:"table"`
	Segments         int    `json:"segments"`
	SealedRows       int    `json:"sealed_rows"`
	DeadRows         int    `json:"dead_rows"`
	PendingRows      int    `json:"pending_rows"`
	MemBytes         int    `json:"bytes"`
	LastLSN          uint64 `json:"last_lsn"`
	ResidentSegments int    `json:"resident_segments"`
	ReleasedRows     int    `json:"released_rows"`
}

// Attach creates a Manager over db and registers it in the package
// registry. For durable databases the WAL is replayed (and persisted
// segments reloaded) so history predating the attach is covered; for
// volatile databases current table contents are snapshotted. Attach
// should run before the database takes concurrent write traffic —
// commits racing the bootstrap are handled, but tables created after
// Attach by a racing writer start tracking from their first observed
// commit.
func Attach(db *storage.DB, cfg Config) (*Manager, error) {
	m := &Manager{
		db:      db,
		cfg:     cfg.withDefaults(),
		durable: db.Durable(),
		stores:  make(map[string]*TableStore),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		booting: true,
	}
	if _, loaded := registry.LoadOrStore(db, m); loaded {
		return nil, fmt.Errorf("columnar: database already has an attached manager")
	}
	// Commits up to here were applied before the hook went in, so the
	// bootstrap below reads them from the WAL or the tables.
	applied := db.Seq()
	m.removeHook = db.OnCommit(m.onCommit)

	if m.durable {
		if m.cfg.Dir != "" {
			if err := m.loadSegments(); err != nil {
				// Unreadable segment state is never fatal: drop it and
				// rebuild from the WAL.
				m.setErr(err)
			}
		}
		if err := m.bootstrapWAL(); err != nil {
			m.detach()
			return nil, err
		}
	} else {
		m.bootstrapTables()
	}

	// Drain commits buffered during bootstrap, then go live.
	m.bootMu.Lock()
	m.observed.Store(applied)
	for _, ci := range m.bootBuf {
		m.observe(ci)
	}
	m.bootBuf = nil
	m.booting = false
	m.bootMu.Unlock()

	m.wg.Add(1)
	go m.sealLoop()
	return m, nil
}

func (m *Manager) detach() {
	m.removeHook()
	registry.CompareAndDelete(m.db, m)
}

// Close stops the sealer and detaches from the database. Sealed
// in-memory state is dropped; durable databases rebuild it on the
// next Attach from segment files and the WAL.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		close(m.done)
		m.wg.Wait()
		m.detach()
	})
}

// Err returns the last background error (segment persistence or
// reload), if any. Background errors never stop the engine: the WAL
// remains the source of truth.
func (m *Manager) Err() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.lastErr
}

func (m *Manager) setErr(err error) {
	if err == nil {
		return
	}
	m.errMu.Lock()
	m.lastErr = err
	m.errMu.Unlock()
}

// Table returns the store for a table, or nil if the table has no
// observed history.
func (m *Manager) Table(name string) *TableStore {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.stores[name]
}

func (m *Manager) store(name string) *TableStore {
	m.mu.RLock()
	st := m.stores[name]
	m.mu.RUnlock()
	if st != nil {
		return st
	}
	tbl, ok := m.db.Table(name)
	if !ok {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if st = m.stores[name]; st != nil {
		return st
	}
	st = &TableStore{
		table:    name,
		schema:   tbl.Schema(),
		tail:     newTail(tbl.Schema()),
		modified: make(map[storage.RowID]struct{}),
		durable:  m.durable,
	}
	m.stores[name] = st
	return st
}

func (m *Manager) allStores() []*TableStore {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*TableStore, 0, len(m.stores))
	for _, st := range m.stores {
		out = append(out, st)
	}
	return out
}

// onCommit is the registered commit hook.
func (m *Manager) onCommit(ci *storage.CommitInfo) {
	m.bootMu.Lock()
	if m.booting {
		m.bootBuf = append(m.bootBuf, ci)
		m.bootMu.Unlock()
		return
	}
	m.bootMu.Unlock()
	m.observe(ci)
}

// observe folds one committed transaction into the per-table stores.
// Each table's slice of the commit is applied in a single critical
// section: a concurrent seal must see either none or all of a commit's
// inserts, or the seal cut could split the commit.
func (m *Manager) observe(ci *storage.CommitInfo) {
	grp := ci.Seq
	if m.durable {
		grp = ci.LSN
	}
	// Nearly every commit names one table (a queue makes one per ACK),
	// and then nothing is built: more holds the other tables of a commit
	// that names several, in order of first appearance.
	var more []string
	for i := range ci.Changes {
		if t := ci.Changes[i].Table; t != ci.Changes[0].Table && !slices.Contains(more, t) {
			more = append(more, t)
		}
	}
	var sealDue bool
	if len(ci.Changes) > 0 {
		sealDue = m.applyTable(ci, ci.Changes[0].Table, grp)
	}
	for _, t := range more {
		sealDue = m.applyTable(ci, t, grp) || sealDue
	}
	if ci.Seq > m.observed.Load() {
		m.observed.Store(ci.Seq)
	}
	if sealDue {
		select {
		case m.kick <- struct{}{}:
		default:
		}
	}
}

// applyTable applies the commit's changes to one table under its
// store's lock and reports whether the tail has grown enough to seal.
func (m *Manager) applyTable(ci *storage.CommitInfo, table string, grp uint64) (sealDue bool) {
	st := m.store(table)
	if st == nil {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range ci.Changes {
		if c := &ci.Changes[i]; c.Table == table {
			m.setErr(st.applyLocked(c, ci.LSN, grp))
		}
	}
	return st.tail.len() >= m.cfg.SealRows
}

// Observed returns the sequence number (storage.CommitInfo.Seq) of the
// last commit folded into the stores. A commit is acknowledged to its
// writer once it is applied to the row store, and its after-commit hook
// — which feeds this history — runs later when another goroutine is
// already delivering hooks. A reader that must see every acknowledged
// write of a table serves it from a Snapshot only when Observed has
// reached the table's LastCommit, read before the Snapshot is taken.
func (m *Manager) Observed() uint64 { return m.observed.Load() }

// applyLocked folds one change into the store. Caller holds mu.
func (st *TableStore) applyLocked(c *storage.Change, lsn, grp uint64) error {
	switch c.Kind {
	case storage.Insert:
		// Dedup against bootstrap: the WAL replay and the buffered
		// hook stream can both deliver a commit; group key and row ID
		// are each monotonic, so replays are cheap to recognize. The
		// group check must be strict — a commit's inserts all share one
		// group key; the row-ID checks below handle the equal case.
		if grp != 0 && grp < st.maxGrp {
			return nil
		}
		if n := st.tail.len(); c.ID <= st.maxSealedID || (n > 0 && c.ID <= st.tail.ids[n-1]) {
			return nil
		}
		if err := st.tail.append(c.ID, lsn, grp, c.New); err != nil {
			return err
		}
		if grp > st.maxGrp {
			st.maxGrp = grp
		}
	case storage.Update, storage.Delete:
		// Re-observing one (bootstrap replay overlap) is harmless:
		// dead-marking is idempotent.
		if grp > st.maxGrp {
			st.maxGrp = grp
		}
		return st.markDeadLocked(c.ID, c.Kind == storage.Delete)
	}
	return nil
}

// markDeadLocked records that a row was rewritten (gone=false: it joins
// modified) or deleted (it leaves), and marks its columnar copy — in
// the tail or in a resident segment — as superseded. modified is
// settled first: the copy of a row claimed long ago may have left
// memory with its segment, and its delete must still take the id out.
// Caller holds mu.
func (st *TableStore) markDeadLocked(id storage.RowID, gone bool) error {
	if gone {
		delete(st.modified, id)
	} else {
		st.modified[id] = struct{}{}
	}
	if i := st.tail.find(id); i >= 0 {
		st.tail.markDead(i)
		return nil
	}
	// Resident segments ascend by row id: the first one ending at or
	// after id is the only one that can hold it.
	lo := sort.Search(len(st.segs), func(i int) bool {
		seg := st.segs[i]
		return seg.ids[seg.rows-1] >= id
	})
	if lo == len(st.segs) {
		return nil
	}
	seg := st.segs[lo]
	pos := seg.find(id)
	if pos < 0 {
		return nil
	}
	seg.markDead(pos)
	keep, err := st.resident(seg)
	if keep == nil {
		copy(st.segs[lo:], st.segs[lo+1:])
		st.segs[len(st.segs)-1] = nil // or the slot pins the last segment
		st.segs = st.segs[:len(st.segs)-1]
	} else {
		st.segs[lo] = keep
	}
	return err
}

// sparseDiv sets when a resident segment is rewritten without its dead
// rows: once they outnumber the live ones sparseDiv-1 to one. Each
// rewrite costs a quarter of the rows the last one kept, so all of a
// segment's rewrites together cost less than sealing it did. It is a
// constant because no workload wants another value: a smaller one keeps
// more dead rows in memory, a larger one re-encodes more often.
const sparseDiv = 4

// settled is the residency rule — memory holds what a scan can return,
// files hold what happened — applied to one sealed segment, or to rows
// about to become one: nil when no row is live, a copy without the dead
// rows when the live ones are down to 1/sparseDiv, else s. s itself is
// never modified: a Snapshot may be scanning it.
func (s *Segment) settled() (*Segment, error) {
	live := s.rows - s.deadCount
	if live == 0 {
		return nil, nil
	}
	if live*sparseDiv > s.rows {
		return s, nil
	}
	return s.liveOnly()
}

// resident returns what st.segs should hold for a sealed segment whose
// dead count has changed (see settled), counting the release of one
// with no live row. Caller holds mu.
func (st *TableStore) resident(seg *Segment) (*Segment, error) {
	keep, err := seg.settled()
	if err != nil {
		return seg, err
	}
	if keep == nil {
		st.release(seg.sealedRows, lsnSpan{seg.firstLSN, seg.lastLSN})
	}
	return keep, nil
}

// release counts sealed rows that left memory, or never entered it; on
// a durable database their LSN span is kept for MineInserts. Caller
// holds mu.
func (st *TableStore) release(rows int, span lsnSpan) {
	st.releasedSegs++
	st.releasedRows += rows
	if st.durable {
		st.released = append(st.released, span)
	}
}

// ---- bootstrap ----

// bootstrapWAL replays the full WAL into the stores. Inserts already
// covered by reloaded segment files are skipped by LSN; updates and
// deletes always re-apply their dead marks (segment files do not
// persist dead bits) — and with them the residency rule, so a reloaded
// segment whose rows have all died since is out of memory again before
// Attach returns.
func (m *Manager) bootstrapWAL() error {
	log := m.db.WAL()
	if log == nil {
		return nil
	}
	return log.Replay(0, func(r wal.Record) error {
		changes, ok, err := storage.DecodeCommitRecord(r)
		if err != nil {
			return fmt.Errorf("columnar: bootstrap lsn=%d: %w", r.LSN, err)
		}
		if !ok {
			return nil
		}
		for i := range changes {
			c := &changes[i]
			st := m.store(c.Table)
			if st == nil {
				continue
			}
			st.mu.Lock()
			switch c.Kind {
			case storage.Insert:
				if r.LSN > st.maxSealedLSN {
					err = st.tail.append(c.ID, r.LSN, r.LSN, c.New)
				}
			case storage.Update, storage.Delete:
				m.setErr(st.markDeadLocked(c.ID, c.Kind == storage.Delete))
			}
			if r.LSN > st.maxGrp {
				st.maxGrp = r.LSN
			}
			st.mu.Unlock()
			if err != nil {
				return fmt.Errorf("columnar: bootstrap lsn=%d: %w", r.LSN, err)
			}
		}
		return nil
	})
}

// bootstrapTables snapshots current table contents of a volatile
// database so history predating the attach is scannable.
func (m *Manager) bootstrapTables() {
	for _, name := range m.db.Tables() {
		tbl, ok := m.db.Table(name)
		if !ok {
			continue
		}
		ids, rows := tbl.ScanRows()
		if len(ids) == 0 {
			continue
		}
		idx := make([]int, len(ids))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return ids[idx[a]] < ids[idx[b]] })
		st := m.store(name)
		if st == nil {
			continue
		}
		st.mu.Lock()
		for _, i := range idx {
			m.setErr(st.tail.append(ids[i], 0, 0, rows[i]))
		}
		st.mu.Unlock()
	}
}

// ---- sealing ----

func (m *Manager) sealLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.SealInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-ticker.C:
		case <-m.kick:
		}
		for _, st := range m.allStores() {
			if st.tailLen() >= m.cfg.SealRows {
				m.seal(st, m.cfg.SealRows)
			}
		}
	}
}

func (st *TableStore) tailLen() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.tail.len()
}

// seal turns the tail into segments of target rows each (whole
// commits; see sealCuts) and leaves the rest as a fresh tail. Outside
// the store lock, from a view of the tail, each cut's file is written
// from the raw vectors — the complete history — and the residency rule
// picks what is encoded for memory: every row, the live ones, or none
// (a queue's rows are mostly claimed before they are sealed). Rows and
// dead marks that land meanwhile are picked up at install, where the
// rule is applied again. It reports whether any row was sealed.
func (m *Manager) seal(st *TableStore, target int) bool {
	st.sealMu.Lock()
	defer st.sealMu.Unlock()

	st.mu.RLock()
	cuts := st.tail.sealCuts(target)
	view := st.tail.view(st.table)
	dead := st.tail.deadCopy()
	st.mu.RUnlock()
	if len(cuts) == 0 {
		return false
	}

	segs := make([]*Segment, len(cuts)) // nil: no row of the cut is live
	from := 0
	for i, cut := range cuts {
		rows := view.slice(from, cut, dead)
		if m.durable && m.cfg.Dir != "" {
			// Before install: once a segment can be released, its file
			// is the copy MineInserts reads.
			m.setErr(m.persistSegment(rows))
		}
		seg, err := rows.settled()
		if seg == rows {
			if seg, err = encodeSegment(rows); err == nil {
				seg.dead, seg.deadCount = rows.dead, rows.deadCount
			}
		}
		if err != nil {
			m.setErr(err)
			return false
		}
		segs[i] = seg
		from = cut
	}

	// Only seals take rows out of the tail and sealMu admits one at a
	// time, so the tail is still the one the view was cut from, grown.
	st.mu.Lock()
	defer st.mu.Unlock()
	t := st.tail
	from = 0
	for i, cut := range cuts {
		if seg := segs[i]; seg == nil {
			st.release(cut-from, lsnSpan{t.lsns[from], t.lsns[cut-1]})
		} else {
			for p := from; p < cut; p++ {
				if t.isDead(p) && !deadBit(dead, p) { // died since the view
					if pos := seg.find(t.ids[p]); pos >= 0 {
						seg.markDead(pos)
					}
				}
			}
			keep, err := st.resident(seg)
			m.setErr(err)
			if keep != nil {
				st.segs = append(st.segs, keep)
			}
		}
		st.maxSealedID = t.ids[cut-1]
		if lsn := t.lsns[cut-1]; lsn > st.maxSealedLSN {
			st.maxSealedLSN = lsn
		}
		from = cut
	}
	st.tail = t.suffix(from)
	return true
}

// Compact force-seals every tail row of a table (all tables when
// name is empty) and returns the resulting stats.
func (m *Manager) Compact(name string) ([]TableStats, error) {
	var stores []*TableStore
	if name == "" {
		stores = m.allStores()
	} else if st := m.Table(name); st != nil {
		stores = []*TableStore{st}
	} else {
		return nil, fmt.Errorf("columnar: no history for table %q", name)
	}
	for _, st := range stores {
		// One segment per pass; a pass seals what the tail held when it
		// started, so loop until a pass finds it empty.
		for m.seal(st, math.MaxInt) {
		}
	}
	out := make([]TableStats, 0, len(stores))
	for _, st := range stores {
		out = append(out, st.Stats())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Table < out[b].Table })
	return out, nil
}

// Stats returns a snapshot of every table's segment stats, sorted by
// table name.
func (m *Manager) Stats() []TableStats {
	stores := m.allStores()
	out := make([]TableStats, 0, len(stores))
	for _, st := range stores {
		out = append(out, st.Stats())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Table < out[b].Table })
	return out
}

// Stats summarizes the store.
func (st *TableStore) Stats() TableStats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := TableStats{
		Table:            st.table,
		Segments:         st.releasedSegs + len(st.segs),
		SealedRows:       st.releasedRows,
		ReleasedRows:     st.releasedRows,
		PendingRows:      st.tail.len(),
		LastLSN:          st.maxSealedLSN,
		ResidentSegments: len(st.segs),
	}
	for _, seg := range st.segs {
		s.SealedRows += seg.sealedRows
		s.ReleasedRows += seg.sealedRows - seg.rows
		s.DeadRows += seg.deadCount
		s.MemBytes += seg.bytes
	}
	s.DeadRows += s.ReleasedRows
	return s
}

// ---- scan snapshots ----

// SegView is one scannable run of rows — a sealed segment, or the tail
// in segment form — plus its dead bitmap as of snapshot time.
type SegView struct {
	Seg  *Segment
	dead []uint64
}

// IsDead reports whether row i was superseded as of the snapshot.
func (sv SegView) IsDead(i int) bool { return deadBit(sv.dead, i) }

// HasDead reports whether any row of the view was dead as of the
// snapshot, letting scans skip the per-row dead check entirely.
func (sv SegView) HasDead() bool { return sv.dead != nil }

// Snapshot is a point-in-time view of a table's columnar history for
// one scan. Every live row of the table is in exactly one place: a
// non-dead position of a sealed segment, a non-dead position of the
// tail, or the row store under an ID listed in Modified.
type Snapshot struct {
	Schema *storage.Schema
	// Segs are the sealed segments, oldest first.
	Segs []SegView
	// Tail is the unsealed tail; Tail.Seg is nil when it is empty.
	Tail SegView
	// Modified lists the rows to fetch from the row store: their
	// columnar copy is dead because an update rewrote them. A listed
	// row may have been deleted since; the fetch then finds nothing.
	Modified []storage.RowID
}

// InRowStore reports whether the current version of a row must be read
// from the row store rather than its columnar copy.
func (s *Snapshot) InRowStore(id storage.RowID) bool {
	for _, m := range s.Modified {
		if m == id {
			return true
		}
	}
	return false
}

// SealedRows returns the total sealed row count in the snapshot.
func (s *Snapshot) SealedRows() int {
	n := 0
	for _, sv := range s.Segs {
		n += sv.Seg.rows
	}
	return n
}

// Snapshot captures the store's state for one consistent scan.
// Segments are shared immutably and the tail is captured as slice
// headers over its append-only vectors, so the cost is independent of
// the tail's length; only the dead bitmaps (the one part mutated in
// place) and the modified set are copied.
func (st *TableStore) Snapshot() *Snapshot {
	st.mu.RLock()
	defer st.mu.RUnlock()
	snap := &Snapshot{
		Schema: st.schema,
		Segs:   make([]SegView, len(st.segs)),
		Tail:   SegView{Seg: st.tail.view(st.table), dead: st.tail.deadCopy()},
	}
	for i, seg := range st.segs {
		sv := SegView{Seg: seg}
		if seg.deadCount > 0 {
			sv.dead = append([]uint64(nil), seg.dead...)
		}
		snap.Segs[i] = sv
	}
	if len(st.modified) > 0 {
		snap.Modified = make([]storage.RowID, 0, len(st.modified))
		for id := range st.modified {
			snap.Modified = append(snap.Modified, id)
		}
	}
	return snap
}

// ---- history mining ----

// MineInserts replays the sealed insert history of one table in LSN
// order, including rows later updated or deleted (the insert happened
// regardless of the row's later fate — exactly what REPLAY wants).
// Dead rows are not kept in memory, so it is the one reader of segment
// files after start-up: a span whose rows are not all resident is
// decoded from its file, one file at a time, and replayed from the WAL
// — the source of truth — when the file is missing or invalid (Err
// then says so). It returns the LSN after the sealed prefix, from which
// the caller should continue with a WAL replay; fromLSN is returned
// unchanged when segments cover nothing at or after it.
func (m *Manager) MineInserts(table string, fromLSN uint64, fn func(lsn uint64, c *storage.Change) error) (nextLSN uint64, err error) {
	st := m.Table(table)
	if st == nil {
		return fromLSN, nil
	}
	type part struct {
		lsnSpan
		seg *Segment // nil, or short of rows, when the file has to serve
	}
	st.mu.RLock()
	var parts []part // the spans reaching fromLSN
	for _, seg := range st.segs {
		if seg.lastLSN >= fromLSN {
			parts = append(parts, part{lsnSpan{seg.firstLSN, seg.lastLSN}, seg})
		}
	}
	for _, span := range st.released {
		if span.last >= fromLSN {
			parts = append(parts, part{lsnSpan: span})
		}
	}
	maxSealedLSN := st.maxSealedLSN
	st.mu.RUnlock()
	if maxSealedLSN == 0 || maxSealedLSN < fromLSN {
		return fromLSN, nil
	}
	sort.Slice(parts, func(a, b int) bool { return parts[a].first < parts[b].first })
	for _, p := range parts {
		seg := p.seg
		if seg == nil || seg.rows < seg.sealedRows {
			seg = nil
			if m.cfg.Dir != "" {
				var ferr error
				if seg, ferr = m.readSegment(st, p.lsnSpan); ferr != nil {
					m.setErr(ferr)
				}
			}
		}
		if seg == nil {
			if err := m.mineWAL(table, max(fromLSN, p.first), p.last, fn); err != nil {
				return 0, err
			}
			continue
		}
		if err := mineSegment(seg, fromLSN, fn); err != nil {
			return 0, err
		}
	}
	return maxSealedLSN + 1, nil
}

// mineSegment hands fn every row of seg at or after fromLSN as the
// insert it was.
func mineSegment(seg *Segment, fromLSN uint64, fn func(lsn uint64, c *storage.Change) error) error {
	r := seg.NewReader(nil)
	var b Batch
	for r.Next(&b) {
		for i := 0; i < b.Len; i++ {
			lsn := seg.lsns[b.Start+i]
			if lsn < fromLSN {
				continue
			}
			row := make(storage.Row, len(seg.cols))
			b.MaterializeRow(row, i)
			c := storage.Change{Table: seg.table, Kind: storage.Insert, ID: seg.ids[b.Start+i], New: row}
			if err := fn(lsn, &c); err != nil {
				return err
			}
		}
	}
	return nil
}

// errPastSpan ends mineWAL's replay at the end of its span.
var errPastSpan = errors.New("columnar: past the span")

// mineWAL hands fn the table's inserts committed at LSNs [from, last],
// read from the WAL.
func (m *Manager) mineWAL(table string, from, last uint64, fn func(lsn uint64, c *storage.Change) error) error {
	err := m.db.WAL().Replay(from, func(r wal.Record) error {
		if r.LSN > last {
			return errPastSpan
		}
		changes, ok, err := storage.DecodeCommitRecord(r)
		if err != nil || !ok {
			return err
		}
		for i := range changes {
			if c := &changes[i]; c.Table == table && c.Kind == storage.Insert {
				if err := fn(r.LSN, c); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if errors.Is(err, errPastSpan) {
		return nil
	}
	return err
}
