package columnar

import (
	"fmt"
	"math"
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
	// Dir, when non-empty, persists sealed segments as files so a
	// restart reloads them instead of re-mining the WAL. Segments that
	// fail validation (partial write, CRC mismatch, schema drift) are
	// discarded and rebuilt from the WAL.
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

	segs []*Segment
	tail *tail
	// modified holds the rows whose current version lives only in the
	// row store: they were updated after their insert reached the tail
	// or a segment, where their position is marked dead. Scans fetch
	// them from the table. An entry lasts until the row is deleted.
	modified     map[storage.RowID]struct{}
	maxSealedID  storage.RowID
	maxSealedLSN uint64
	maxGrp       uint64 // dedup guard: highest observed seal-group key
}

// TableStats is the COMPACT/stats surface for one table.
type TableStats struct {
	Table       string `json:"table"`
	Segments    int    `json:"segments"`
	SealedRows  int    `json:"sealed_rows"`
	DeadRows    int    `json:"dead_rows"`
	PendingRows int    `json:"pending_rows"`
	MemBytes    int    `json:"bytes"`
	LastLSN     uint64 `json:"last_lsn"`
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
	byTable := make(map[string][]int)
	var tables []string
	for i := range ci.Changes {
		t := ci.Changes[i].Table
		if _, seen := byTable[t]; !seen {
			tables = append(tables, t)
		}
		byTable[t] = append(byTable[t], i)
	}
	var wantKick bool
	for _, table := range tables {
		st := m.store(table)
		if st == nil {
			continue
		}
		st.mu.Lock()
		for _, i := range byTable[table] {
			m.setErr(st.applyLocked(&ci.Changes[i], ci.LSN, grp))
		}
		if st.tail.len() >= m.cfg.SealRows {
			wantKick = true
		}
		st.mu.Unlock()
	}
	if ci.Seq > m.observed.Load() {
		m.observed.Store(ci.Seq)
	}
	if wantKick {
		select {
		case m.kick <- struct{}{}:
		default:
		}
	}
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
	case storage.Update:
		// Re-observing an update (bootstrap replay overlap) is
		// harmless: dead-marking is idempotent.
		st.markDeadLocked(c.ID, false)
		if grp > st.maxGrp {
			st.maxGrp = grp
		}
	case storage.Delete:
		st.markDeadLocked(c.ID, true)
		if grp > st.maxGrp {
			st.maxGrp = grp
		}
	}
	return nil
}

// markDeadLocked marks a row's columnar copy — in the tail or in a
// segment — as superseded. An updated row (gone=false) joins modified,
// a deleted one leaves it. Caller holds mu.
func (st *TableStore) markDeadLocked(id storage.RowID, gone bool) {
	if i := st.tail.find(id); i >= 0 {
		st.tail.markDead(i)
	} else if !st.markSealedDeadLocked(id) {
		return // no columnar copy: the row predates the observed history
	}
	if gone {
		delete(st.modified, id)
	} else {
		st.modified[id] = struct{}{}
	}
}

func (st *TableStore) markSealedDeadLocked(id storage.RowID) bool {
	for _, seg := range st.segs {
		first, last, _, _ := seg.Bounds()
		if id < first || id > last {
			continue
		}
		if pos := seg.find(id); pos >= 0 {
			seg.markDead(pos)
			return true
		}
	}
	return false
}

// ---- bootstrap ----

// bootstrapWAL replays the full WAL into the stores. Inserts already
// covered by reloaded segment files are skipped by LSN; updates and
// deletes always re-apply their dead marks (segment files do not
// persist dead bits).
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
			case storage.Update:
				st.markDeadLocked(c.ID, false)
			case storage.Delete:
				st.markDeadLocked(c.ID, true)
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

// seal encodes the tail into segments of target rows each (whole
// commits; see sealCuts) and leaves the rest as a fresh tail. The
// encode happens outside the store lock, from a view of the tail; rows
// and dead marks that land during it are picked up at install. It
// reports whether any row was sealed.
func (m *Manager) seal(st *TableStore, target int) bool {
	st.sealMu.Lock()
	defer st.sealMu.Unlock()

	st.mu.RLock()
	cuts := st.tail.sealCuts(target)
	view := st.tail.view(st.table)
	st.mu.RUnlock()
	if len(cuts) == 0 {
		return false
	}

	segs := make([]*Segment, 0, len(cuts))
	from := 0
	for _, cut := range cuts {
		seg, err := encodeSegment(view, from, cut)
		if err != nil {
			m.setErr(err)
			return false
		}
		segs = append(segs, seg)
		from = cut
	}

	// Only seals take rows out of the tail and sealMu admits one at a
	// time, so the tail is still the one the view was cut from, grown.
	st.mu.Lock()
	t := st.tail
	from = 0
	for _, seg := range segs {
		for i := 0; t.deadCount > 0 && i < seg.rows; i++ {
			if t.isDead(from + i) {
				seg.markDead(i)
			}
		}
		from += seg.rows
		st.segs = append(st.segs, seg)
		st.maxSealedID = seg.ids[seg.rows-1]
		if seg.lastLSN > st.maxSealedLSN {
			st.maxSealedLSN = seg.lastLSN
		}
	}
	st.tail = t.suffix(from)
	st.mu.Unlock()

	if m.durable && m.cfg.Dir != "" {
		for _, seg := range segs {
			if err := m.persistSegment(seg); err != nil {
				m.setErr(err)
			}
		}
	}
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
		Table:       st.table,
		Segments:    len(st.segs),
		PendingRows: st.tail.len(),
		LastLSN:     st.maxSealedLSN,
	}
	for _, seg := range st.segs {
		s.SealedRows += seg.rows
		s.DeadRows += seg.deadCount
		s.MemBytes += seg.bytes
	}
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
// It returns the LSN after the sealed prefix, from which the caller
// should continue with a WAL replay; fromLSN is returned unchanged
// when segments cover nothing at or after it.
func (m *Manager) MineInserts(table string, fromLSN uint64, fn func(lsn uint64, c *storage.Change) error) (nextLSN uint64, err error) {
	st := m.Table(table)
	if st == nil {
		return fromLSN, nil
	}
	st.mu.RLock()
	segs := append([]*Segment(nil), st.segs...)
	maxSealedLSN := st.maxSealedLSN
	st.mu.RUnlock()
	if maxSealedLSN == 0 || maxSealedLSN < fromLSN {
		return fromLSN, nil
	}
	width := len(st.schema.Columns)
	for _, seg := range segs {
		if seg.lastLSN < fromLSN {
			continue
		}
		r := seg.NewReader(nil)
		var b Batch
		for r.Next(&b) {
			for i := 0; i < b.Len; i++ {
				lsn := seg.lsns[b.Start+i]
				if lsn < fromLSN {
					continue
				}
				row := make(storage.Row, width)
				b.MaterializeRow(row, i)
				c := storage.Change{Table: table, Kind: storage.Insert, ID: seg.ids[b.Start+i], New: row}
				if err := fn(lsn, &c); err != nil {
					return 0, err
				}
			}
		}
	}
	return maxSealedLSN + 1, nil
}
