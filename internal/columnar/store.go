package columnar

import (
	"fmt"
	"sync"
	"time"

	"eventdb/internal/storage"
	"eventdb/internal/vfs"
)

// Config tunes a Manager.
type Config struct {
	// SealRows is the width of the row-id ranges a table's history is
	// cut into: the background sealer cuts ids [k·SealRows+1,
	// (k+1)·SealRows+1) once the table has issued all of them. Defaults
	// to 8192.
	SealRows int
	// SealInterval is the sealer's wake-up cadence. Defaults to 200ms.
	SealInterval time.Duration
	// Dir, when non-empty, persists each cut as a file: a restart hands
	// its rows to the replayed table instead of cutting the range again.
	// Files that fail validation (partial write, CRC mismatch, schema
	// drift, ahead of the WAL) are discarded and their ranges cut again
	// from the rows.
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

// Manager seals the history of one database: a background sealer cuts
// each table's rows by id range into segments, which it hands to the
// table (storage.Table.Evict). Where a range is cut depends on the row
// ids alone, not on when the sealer runs: only Compact cuts a range
// short.
type Manager struct {
	db    *storage.DB
	cfg   Config
	files bool // cuts are persisted: a durable database and a Dir

	mu     sync.Mutex
	stores map[string]*TableStore

	errMu   sync.Mutex
	lastErr error

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// TableStore is the sealer's record of one table: which of its ids the
// cuts have taken. The segments it seals are the table's
// (storage.Table.Runs), not its own.
type TableStore struct {
	table string
	// tbl is the row store's table: every cut is taken from it and every
	// segment handed to it (storage.Table.Evict).
	tbl *storage.Table

	// sealMu serializes cuts (background sealer vs forced Compact) and
	// guards next and ahead: next is the lowest id no cut has taken, and
	// ahead the ranges above it that reloaded files hold, ascending.
	// Every other id below the table's next one is pending.
	sealMu sync.Mutex
	next   storage.RowID
	ahead  [][2]storage.RowID

	// mu guards the stats: segments counts the cuts taken or reloaded,
	// sealed the ids in them, and lastLSN is the WAL position when the
	// last was.
	mu               sync.Mutex
	segments, sealed int
	lastLSN          uint64
}

// TableStats is the COMPACT/stats surface for one table. Segments and
// SealedRows count the cuts taken (or reloaded) and the ids they cover,
// in memory or not, and PendingRows the ids issued above them.
// ResidentSegments are the segments the table holds as sealed runs, and
// MemBytes their size with what the table keeps per run beside them
// (storage.Table.Runs); ColdRows are the rows that live in one of them
// only, and DeadRows the other sealed ids: deleted, rewritten, or taken
// back hot. ReleasedRows are the sealed ids that no resident segment
// holds: the cut found too few live rows for a segment, or the table
// declined it or gave it back.
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

// Attach creates a Manager over db, the only one it may have, and
// starts its sealer. A durable database's persisted cuts are reloaded:
// history is cut from the tables, which the WAL replay has filled, so
// Attach reads no log.
func Attach(db *storage.DB, cfg Config) (*Manager, error) {
	m := &Manager{
		db:     db,
		cfg:    cfg.withDefaults(),
		stores: make(map[string]*TableStore),
		done:   make(chan struct{}),
	}
	m.files = db.Durable() && m.cfg.Dir != ""
	if !db.OwnHistory(true) {
		return nil, fmt.Errorf("columnar: database already has an attached manager")
	}
	if m.files {
		// Unreadable segment state is never fatal: its ranges are cut
		// again.
		m.setErr(m.loadSegments())
	}
	m.wg.Add(1)
	go m.sealLoop()
	return m, nil
}

// Close stops the sealer and detaches from the database. The segments
// the tables hold stay theirs.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		close(m.done)
		m.wg.Wait()
		m.db.OwnHistory(false)
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

// Table returns the store for a table, or nil if the table has issued
// no row id.
func (m *Manager) Table(name string) *TableStore {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.stores[name]; st != nil {
		return st
	}
	tbl, ok := m.db.Table(name)
	if !ok || tbl.NextID() == 1 {
		return nil
	}
	st := &TableStore{table: name, tbl: tbl, next: 1}
	m.stores[name] = st
	return st
}

// allStores returns the store of every table with history, by name.
func (m *Manager) allStores() []*TableStore {
	var out []*TableStore
	for _, name := range m.db.Tables() {
		if st := m.Table(name); st != nil {
			out = append(out, st)
		}
	}
	return out
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
		}
		for _, st := range m.allStores() {
			m.seal(st, st.tbl.NextID(), true)
		}
	}
}

// seal cuts st's history up to id end, range by range from the lowest
// id no cut has taken: each range ends where its SealRows-wide slot of
// the id space does, or where a range a reloaded file holds begins.
// With whole set, a range that end would cut short is left for later,
// so that only Compact cuts one short.
func (m *Manager) seal(st *TableStore, end storage.RowID, whole bool) {
	st.sealMu.Lock()
	defer st.sealMu.Unlock()
	slot := storage.RowID(m.cfg.SealRows)
	for st.next < end {
		lo, hi := st.next, (st.next-1)/slot*slot+slot+1
		if len(st.ahead) > 0 && st.ahead[0][0] == lo {
			st.next, st.ahead = st.ahead[0][1], st.ahead[1:]
			continue
		}
		if len(st.ahead) > 0 {
			hi = min(hi, st.ahead[0][0])
		}
		if hi > end {
			if whole {
				return
			}
			hi = end
		}
		c := &cut{lo: lo, hi: hi}
		c.ids, c.imgs = st.tbl.Images(lo, hi)
		if m.files {
			// The file serves restart only: Attach hands its rows to the
			// table instead of cutting the range again.
			m.setErr(m.persistSegment(st, c))
		}
		m.setErr(m.install(st, c))
		st.adopt(c, m.db.LastApplied())
	}
}

// cut is what a cut took from a table: the range of ids [lo, hi) and,
// ascending, the ids and images of its rows that held what their insert
// wrote (storage.Table.Images).
type cut struct {
	lo, hi storage.RowID
	ids    []storage.RowID
	imgs   []string
}

// install hands a cut's rows to the table as a segment, which takes the
// rows whose image is still the cut's (storage.Table.Evict). A cut of
// which no more than 1/SparseDiv is live is not even encoded: the table
// would give its run back at once: on a queue table most messages are
// settled before their range is cut. No reader waits on any of it:
// every row is the table's throughout.
func (m *Manager) install(st *TableStore, c *cut) error {
	if len(c.ids)*storage.SparseDiv <= int(c.hi-c.lo) {
		return nil
	}
	seg, err := encodeSegment(st.table, st.tbl.Schema(), c.ids, c.imgs)
	if err != nil {
		return err
	}
	st.tbl.Evict(seg, c.imgs)
	return nil
}

// adopt records the cut c, taken or reloaded when the WAL stood at lsn.
// Caller holds st.sealMu.
func (st *TableStore) adopt(c *cut, lsn uint64) {
	if c.lo == st.next {
		st.next = c.hi
	} else {
		st.ahead = append(st.ahead, [2]storage.RowID{c.lo, c.hi})
	}
	st.mu.Lock()
	st.segments++
	st.sealed += int(c.hi - c.lo)
	st.lastLSN = lsn
	st.mu.Unlock()
}

// Compact cuts every id a table has issued (all tables when name is
// empty), the last range short if need be, and returns the resulting
// stats.
func (m *Manager) Compact(name string) ([]TableStats, error) {
	var stores []*TableStore
	if name == "" {
		stores = m.allStores()
	} else if st := m.Table(name); st != nil {
		stores = []*TableStore{st}
	} else {
		return nil, fmt.Errorf("columnar: no history for table %q", name)
	}
	out := make([]TableStats, 0, len(stores))
	for _, st := range stores {
		m.seal(st, st.tbl.NextID(), false)
		out = append(out, st.Stats())
	}
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
	return out
}

// Stats summarizes the store and the segments its table holds.
func (st *TableStore) Stats() TableStats {
	runs, cold, side := st.tbl.Runs()
	st.mu.Lock()
	s := TableStats{
		Table:            st.table,
		Segments:         st.segments,
		SealedRows:       st.sealed,
		LastLSN:          st.lastLSN,
		ResidentSegments: len(runs),
		ColdRows:         cold,
		MemBytes:         side,
	}
	st.mu.Unlock()
	// Read after the cuts: no cut ends past the table's next id.
	s.PendingRows = int(st.tbl.NextID()-1) - s.SealedRows
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
