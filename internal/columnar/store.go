package columnar

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
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
	// reloads them instead of re-mining the WAL. Files that fail
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

// Manager seals the history of one database: a TableStore per table
// stages its committed inserts, fed by the commit-hook stream, and a
// background sealer cuts them into segments that it hands to the table
// (storage.Table.Evict).
type Manager struct {
	db      *storage.DB
	cfg     Config
	durable bool

	mu     sync.RWMutex
	stores map[string]*TableStore

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

// TableStore stages one table's unsealed inserts for the sealer. The
// segments it seals are the table's (storage.Table.Runs), not its own.
type TableStore struct {
	table  string
	schema *storage.Schema
	// tbl is the row store's table, which every sealed segment is
	// handed to (storage.Table.Evict).
	tbl *storage.Table

	// sealMu serializes seal operations (background sealer vs forced
	// Compact); mu guards all mutable state below.
	sealMu sync.Mutex
	mu     sync.RWMutex

	tail *tail
	// segments and sealedRows count the segments sealed or reloaded,
	// and their rows.
	segments, sealedRows int
	maxSealedID          storage.RowID
	maxSealedLSN         uint64
	maxGrp               uint64 // dedup guard: highest observed seal-group key
}

// TableStats is the COMPACT/stats surface for one table. Segments and
// SealedRows count what was sealed (or reloaded), in memory or not, and
// PendingRows the inserts not sealed yet. ResidentSegments are the
// segments the table holds as sealed runs, and MemBytes their size with
// what the table keeps per run beside them (storage.Table.Runs);
// ColdRows are the rows that live in one of them only, and DeadRows the
// other sealed rows, whose sealed copy serves no read (updated, deleted,
// or taken back hot). ReleasedRows are the sealed rows that no resident
// segment holds: the table declined their segment or gave it back.
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
	ColdRows         int    `json:"cold_rows"`
}

// Attach creates a Manager over db, the only one it may have. For
// durable databases the WAL is replayed (and persisted
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
	if !db.OwnHistory(true) {
		return nil, fmt.Errorf("columnar: database already has an attached manager")
	}
	// Commits up to here were applied before the hook went in, so the
	// bootstrap below reads them from the WAL or the tables.
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
	m.db.OwnHistory(false)
}

// Close stops the sealer and detaches from the database. The segments
// the tables hold stay theirs; the staged inserts are dropped.
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

// Table returns the store for a table, or nil if none of its commits
// has been observed.
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
		table:  name,
		schema: tbl.Schema(),
		tbl:    tbl,
		tail:   newTail(tbl.Schema()),
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

// applyLocked folds one change into the tail: an insert is appended
// unless the bootstrap already did (the WAL replay and the buffered
// hook stream can both deliver a commit, and group key and row id are
// each monotonic, so a replay is cheap to recognize), and every change
// advances the group key. The group check must be strict: a commit's
// inserts all share one group key, and the row-id checks handle the
// equal case. Caller holds mu.
func (st *TableStore) applyLocked(c *storage.Change, lsn, grp uint64) error {
	var err error
	if n := st.tail.len(); c.Kind == storage.Insert && (grp == 0 || grp >= st.maxGrp) &&
		c.ID > st.maxSealedID && (n == 0 || c.ID > st.tail.ids[n-1]) {
		err = st.tail.append(c.ID, lsn, grp, c.New)
	}
	st.maxGrp = max(st.maxGrp, grp)
	return err
}

// ---- bootstrap ----

// bootstrapWAL replays the WAL's inserts into the tails, but for those
// that reloaded segment files already hold (skipped by LSN). Which of
// the rows are still live is the table's to know.
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
			if c.Kind == storage.Insert && r.LSN > st.maxSealedLSN {
				err = st.tail.append(c.ID, r.LSN, r.LSN, c.New)
			}
			st.maxGrp = max(st.maxGrp, r.LSN)
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
// and its segment encoded from the raw vectors. Each segment is then
// handed to the table, which takes the rows it holds that are still
// live (storage.Table.Evict); a segment it declines is dropped, and its
// rows stay hot. A cut the table would decline is not even encoded: on
// a queue table most rows are claimed before they are sealed. No reader
// waits on any of it: every row is the table's throughout. It reports
// whether any row was sealed.
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

	var segs []*Segment
	from := 0
	for _, cut := range cuts {
		rows := view.slice(from, cut)
		from = cut
		if m.durable && m.cfg.Dir != "" {
			// The file serves restart only: Attach reloads it instead
			// of re-sealing its rows from the WAL.
			m.setErr(m.persistSegment(rows))
		}
		if st.tbl.Holds(rows.ids)*storage.SparseDiv <= rows.rows {
			continue
		}
		seg, err := encodeSegment(rows)
		if err != nil {
			m.setErr(err)
			return false
		}
		segs = append(segs, seg)
	}

	// Only seals take rows out of the tail and sealMu admits one at a
	// time, so the tail is still the one the view was cut from, grown.
	st.mu.Lock()
	t := st.tail
	st.segments += len(cuts)
	st.sealedRows += from
	st.maxSealedID = t.ids[from-1]
	st.maxSealedLSN = max(st.maxSealedLSN, t.lsns[from-1])
	st.tail = t.suffix(from)
	st.mu.Unlock()
	for _, seg := range segs {
		st.tbl.Evict(seg)
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

// Stats summarizes the store and the segments its table holds.
func (st *TableStore) Stats() TableStats {
	runs, cold, side := st.tbl.Runs()
	st.mu.RLock()
	s := TableStats{
		Table:            st.table,
		Segments:         st.segments,
		SealedRows:       st.sealedRows,
		PendingRows:      st.tail.len(),
		LastLSN:          st.maxSealedLSN,
		ResidentSegments: len(runs),
		ColdRows:         cold,
		MemBytes:         side,
	}
	st.mu.RUnlock()
	resident := 0
	for _, run := range runs {
		seg := run.(*Segment)
		resident += seg.rows
		s.MemBytes += seg.bytes
	}
	s.DeadRows = s.SealedRows - cold
	s.ReleasedRows = s.SealedRows - resident
	return s
}
