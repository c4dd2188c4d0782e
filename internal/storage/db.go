package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"eventdb/internal/vfs"
	"eventdb/internal/wal"
)

// ChangeKind classifies a row mutation.
type ChangeKind uint8

// Row mutation kinds.
const (
	Insert ChangeKind = iota + 1
	Update
	Delete
)

// String returns the mutation kind name.
func (k ChangeKind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Update:
		return "update"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Change records one row mutation inside a commit. Old is nil for
// inserts; New is nil for deletes. BEFORE hooks may replace New on
// inserts and updates (the row is re-validated afterwards).
type Change struct {
	Table string
	Kind  ChangeKind
	ID    RowID
	Old   Row
	New   Row
}

// CommitInfo is passed to after-commit observers, in commit order.
type CommitInfo struct {
	Seq     uint64 // database-local commit sequence, starts at 1
	LSN     uint64 // WAL LSN of the commit record; 0 when volatile
	Changes []Change
}

// BeforeHook runs before a change is applied and may veto the whole
// transaction by returning an error, or rewrite Change.New.
type BeforeHook func(*Change) error

// CommitHook observes committed transactions, in commit order. Hooks run
// synchronously on the committing goroutine after table locks are
// released; slow consumers should hand off to a channel.
type CommitHook func(*CommitInfo)

// Options configures Open.
type Options struct {
	// Dir enables durability: the WAL lives here. Empty means a purely
	// in-memory (volatile) database.
	Dir string
	// SyncEvery is passed to the WAL (fsync cadence); only meaningful
	// with Dir set.
	SyncEvery int
	// SegmentBytes is passed to the WAL.
	SegmentBytes int64
	// FS is the filesystem the WAL writes through. Nil means the real
	// one; tests inject vfs.Faulty to exercise disk-failure paths.
	FS vfs.FS
}

// DB is the embedded database engine.
type DB struct {
	mu     sync.RWMutex // protects tables map and hook registries
	tables map[string]*Table
	log    *wal.WAL
	seq    atomic.Uint64

	commitMu sync.Mutex // serializes commit execution
	// commitBuf is the commit record under construction, reused from
	// one commit to the next (commitMu held; the WAL copies what it is
	// handed): a batch's record runs to hundreds of KB, and growing one
	// from nothing per commit is that much garbage again.
	commitBuf []byte

	// Observer delivery: commits append their CommitInfo to pending in
	// commit order (under commitMu), and hooks are drained outside the
	// lock so that hooks can themselves commit (e.g. a trigger action
	// enqueueing a message) without deadlocking. The delivering flag
	// makes exactly one goroutine drain at a time, preserving order.
	pendingMu  sync.Mutex
	pending    []*CommitInfo
	delivering bool

	hookMu      sync.RWMutex
	beforeHooks map[string][]*beforeEntry
	commitHooks []*commitEntry
	hookID      atomic.Uint64

	// readonly gates every local mutation path (follower mode). The
	// replication apply path bypasses it: ApplyReplicated is the one
	// writer a read-only database accepts.
	readonly atomic.Bool

	// Fail-stop state: the first WAL append/sync error marks the
	// database degraded and every mutation path (including replication
	// apply) refuses with ErrDegraded until Recover re-verifies the WAL
	// tail. lastApplied tracks the highest LSN that was both logged and
	// applied to table state — the truncation horizon Recover hands to
	// wal.RecoverTail; nothing at or below it is ever discarded.
	degraded      atomic.Bool
	degradedMu    sync.Mutex // guards degradedCause and serializes Recover
	degradedCause error
	lastApplied   atomic.Uint64

	// historyOwned is set while a sealer owns the tables' sealed
	// history (OwnHistory).
	historyOwned atomic.Bool
}

type beforeEntry struct {
	id uint64
	fn BeforeHook
}

type commitEntry struct {
	id uint64
	fn CommitHook
}

// Open creates a database. With Options.Dir set, existing WAL contents
// are replayed to rebuild tables and rows.
func Open(opts Options) (*DB, error) {
	db := &DB{
		tables:      make(map[string]*Table),
		beforeHooks: make(map[string][]*beforeEntry),
	}
	if opts.Dir == "" {
		return db, nil
	}
	w, err := wal.Open(wal.Options{Dir: opts.Dir, SyncEvery: opts.SyncEvery, SegmentBytes: opts.SegmentBytes, FS: opts.FS})
	if err != nil {
		return nil, err
	}
	db.log = w
	if err := db.recover(); err != nil {
		w.Close()
		return nil, err
	}
	return db, nil
}

// recover replays the WAL into empty in-memory state.
func (db *DB) recover() error {
	return db.log.Replay(0, func(r wal.Record) error {
		db.lastApplied.Store(r.LSN)
		switch r.Type {
		case recCommit:
			_, changes, err := decodeCommit(r.Data)
			if err != nil {
				return fmt.Errorf("storage: recover commit lsn=%d: %w", r.LSN, err)
			}
			db.seq.Add(1)
			if err := db.applyChanges(changes); err != nil {
				return fmt.Errorf("storage: recover lsn=%d: %w", r.LSN, err)
			}
		case recCreateTable:
			s, err := decodeSchema(r.Data)
			if err != nil {
				return fmt.Errorf("storage: recover schema lsn=%d: %w", r.LSN, err)
			}
			db.tables[s.Name] = newTable(s)
		case recCreateIndex:
			return fmt.Errorf("storage: recover lsn=%d: %w", r.LSN, errIndexRecord)
		}
		return nil
	})
}

// applyChanges applies already-committed changes to in-memory table
// state, taking each table's lock per change. Shared by WAL recovery
// and the replication apply path; validation already happened on the
// side that logged the commit. An update or delete of a row the table
// does not hold is a corrupt record (a transaction that touched a row
// twice, logged before prepare refused it): it is refused, with the
// changes before it applied, and the caller names its LSN.
func (db *DB) applyChanges(changes []Change) error {
	for i := range changes {
		c := &changes[i]
		db.mu.RLock()
		t, ok := db.tables[c.Table]
		db.mu.RUnlock()
		if !ok {
			return fmt.Errorf("storage: apply: unknown table %q", c.Table)
		}
		t.mu.Lock()
		var old Row
		if c.Kind != Insert {
			if old, ok = t.row(c.ID); !ok {
				t.mu.Unlock()
				return fmt.Errorf("storage: apply: table %q: %s of missing row %d: corrupt commit record", c.Table, c.Kind, c.ID)
			}
		}
		switch c.Kind {
		case Insert:
			t.applyInsert(c.ID, c.New)
		case Update:
			t.applyUpdate(c.ID, old, c.New)
		case Delete:
			t.applyDelete(c.ID, old)
		}
		t.version++
		t.mu.Unlock()
	}
	return nil
}

// OwnHistory takes (own) or gives back (!own) the one right to seal
// the database's tables, reporting false when it was already taken or
// not held.
func (db *DB) OwnHistory(own bool) bool { return db.historyOwned.CompareAndSwap(!own, own) }

// Durable reports whether the database is WAL-backed.
func (db *DB) Durable() bool { return db.log != nil }

// WAL exposes the underlying log for journal mining. Nil when volatile.
func (db *DB) WAL() *wal.WAL { return db.log }

// Seq returns the last committed sequence number.
func (db *DB) Seq() uint64 { return db.seq.Load() }

// Close syncs and closes the WAL.
func (db *DB) Close() error {
	if db.log != nil {
		return db.log.Close()
	}
	return nil
}

// Flush hands the WAL's buffered records to the OS, so that every
// commit made before it survives the death of this process. It is a
// write, not an fsync: surviving the machine takes Sync. A volatile
// database has nothing to flush. A failure fail-stops the database into
// degraded mode like any append failure.
func (db *DB) Flush() error {
	if db.log == nil {
		return nil
	}
	if db.degraded.Load() {
		return db.degradedError()
	}
	if err := db.log.Flush(); err != nil {
		db.failStop(err)
		return db.degradedError()
	}
	return nil
}

// Sync forces WAL durability up to the last commit. A sync failure
// fail-stops the database into degraded mode like any append failure.
func (db *DB) Sync() error {
	if db.log == nil {
		return nil
	}
	if db.degraded.Load() {
		return db.degradedError()
	}
	if err := db.log.Sync(); err != nil {
		db.failStop(err)
		return db.degradedError()
	}
	return nil
}

// ErrExists wraps creation of an object that already exists, so
// callers can distinguish a name collision from other failures.
var ErrExists = errors.New("storage: already exists")

// ErrReadOnly is returned for local mutations attempted while the
// database is in follower (read-only) mode.
var ErrReadOnly = errors.New("storage: database is read-only")

// SetReadOnly flips follower mode: while set, every local mutation
// (commits, DDL) fails with ErrReadOnly. ApplyReplicated bypasses the
// gate so a follower can keep mirroring its leader.
func (db *DB) SetReadOnly(ro bool) { db.readonly.Store(ro) }

// ReadOnly reports whether the database is in follower mode.
func (db *DB) ReadOnly() bool { return db.readonly.Load() }

// ErrDegraded is returned for mutations attempted after a WAL write or
// fsync failure fail-stopped the database. Reads keep working; Recover
// re-verifies the log tail and resumes mutations.
var ErrDegraded = errors.New("storage: database is degraded (WAL write failure)")

// failStop marks the database degraded: the on-disk state of the log is
// unknown, so rather than risk silently diverging from it, every
// subsequent mutation is refused until Recover re-verifies the tail.
// The first cause wins; later failures while already degraded are noise.
func (db *DB) failStop(cause error) {
	db.degradedMu.Lock()
	if db.degradedCause == nil {
		db.degradedCause = cause
		db.degraded.Store(true)
	}
	db.degradedMu.Unlock()
}

// degradedError returns ErrDegraded wrapped around the original cause.
func (db *DB) degradedError() error {
	db.degradedMu.Lock()
	cause := db.degradedCause
	db.degradedMu.Unlock()
	if cause == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrDegraded, cause)
}

// Degraded reports whether the database is fail-stopped, and the
// failure that put it there.
func (db *DB) Degraded() (bool, string) {
	if !db.degraded.Load() {
		return false, ""
	}
	db.degradedMu.Lock()
	cause := db.degradedCause
	db.degradedMu.Unlock()
	if cause == nil {
		return false, ""
	}
	return true, cause.Error()
}

// LastApplied returns the highest WAL LSN that was logged and applied
// to table state (0 for a volatile database).
func (db *DB) LastApplied() uint64 { return db.lastApplied.Load() }

// noteApplied advances the applied horizon to lsn (monotonic; appends
// from the commit and DDL paths can race on the store order).
func (db *DB) noteApplied(lsn uint64) {
	for {
		cur := db.lastApplied.Load()
		if lsn <= cur || db.lastApplied.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// Recover exits degraded mode: it re-verifies the WAL tail, truncating
// any bytes past the last applied record (nothing there was ever
// acknowledged), fsyncs the surviving prefix, and resumes mutations.
// If the device still refuses writes the database stays degraded and
// the error is returned. A non-degraded database returns nil.
func (db *DB) Recover() error {
	// Exclude in-flight commits and DDL while the log is torn down and
	// reopened (same order as commitLocked: commitMu, then db.mu).
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.degradedMu.Lock()
	defer db.degradedMu.Unlock()
	if db.degradedCause == nil {
		return nil
	}
	if db.log != nil {
		if err := db.log.RecoverTail(db.lastApplied.Load()); err != nil {
			return fmt.Errorf("storage: recover: %w", err)
		}
	}
	db.degradedCause = nil
	db.degraded.Store(false)
	return nil
}

// ApplyReplicated re-logs and applies one leader WAL record on a
// follower. The record is appended verbatim so the follower's LSN
// space mirrors the leader's 1:1; if the local append lands on any
// other LSN the logs have diverged and an error is returned before
// anything is applied to table state. Commit hooks fire as usual, so
// journal mining and REPLAY keep working on followers.
func (db *DB) ApplyReplicated(r wal.Record) error {
	if db.log == nil {
		return errors.New("storage: ApplyReplicated requires a durable (WAL-backed) database")
	}
	if err := db.applyReplicatedLocked(r); err != nil {
		return err
	}
	db.deliverPending()
	return nil
}

func (db *DB) applyReplicatedLocked(r wal.Record) error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.degraded.Load() {
		return db.degradedError()
	}
	if r.Type == recCreateIndex {
		return fmt.Errorf("storage: replicated record lsn=%d: %w", r.LSN, errIndexRecord)
	}
	lsn, err := db.log.Append(r.Type, r.Data)
	if err != nil {
		db.failStop(err)
		return fmt.Errorf("storage: replicated append: %w", err)
	}
	if lsn != r.LSN {
		return fmt.Errorf("storage: replica diverged: leader record lsn=%d landed at local lsn=%d", r.LSN, lsn)
	}
	db.noteApplied(lsn)
	switch r.Type {
	case recCommit:
		_, changes, err := decodeCommit(r.Data)
		if err != nil {
			return fmt.Errorf("storage: replicated commit lsn=%d: %w", r.LSN, err)
		}
		if err := db.applyChanges(changes); err != nil {
			return fmt.Errorf("storage: replicated apply lsn=%d: %w", r.LSN, err)
		}
		info := &CommitInfo{LSN: r.LSN, Changes: changes}
		info.Seq = db.seq.Add(1)
		db.pendingMu.Lock()
		db.pending = append(db.pending, info)
		db.pendingMu.Unlock()
	case recCreateTable:
		s, err := decodeSchema(r.Data)
		if err != nil {
			return fmt.Errorf("storage: replicated schema lsn=%d: %w", r.LSN, err)
		}
		db.mu.Lock()
		if _, exists := db.tables[s.Name]; exists {
			db.mu.Unlock()
			return fmt.Errorf("storage: replicated create of existing table %q", s.Name)
		}
		db.tables[s.Name] = newTable(s)
		db.mu.Unlock()
	default:
		return fmt.Errorf("storage: replicated record lsn=%d has unknown type %d", r.LSN, r.Type)
	}
	return nil
}

// CreateTable registers a new table.
func (db *DB) CreateTable(s *Schema) error {
	if db.readonly.Load() {
		return ErrReadOnly
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[s.Name]; exists {
		return fmt.Errorf("%w: table %q", ErrExists, s.Name)
	}
	if db.log != nil {
		if db.degraded.Load() {
			return db.degradedError()
		}
		lsn, err := db.log.Append(recCreateTable, encodeSchema(nil, s))
		if err != nil {
			db.failStop(err)
			return db.degradedError()
		}
		db.noteApplied(lsn)
	}
	db.tables[s.Name] = newTable(s)
	return nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// Tables returns all table names, sorted.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// OnBefore registers a veto/rewrite hook for a table (the substrate for
// BEFORE triggers). The returned function unregisters it.
func (db *DB) OnBefore(table string, fn BeforeHook) (remove func()) {
	id := db.hookID.Add(1)
	e := &beforeEntry{id: id, fn: fn}
	db.hookMu.Lock()
	db.beforeHooks[table] = append(db.beforeHooks[table], e)
	db.hookMu.Unlock()
	return func() {
		db.hookMu.Lock()
		defer db.hookMu.Unlock()
		hooks := db.beforeHooks[table]
		for i, h := range hooks {
			if h.id == id {
				db.beforeHooks[table] = append(hooks[:i:i], hooks[i+1:]...)
				return
			}
		}
	}
}

// OnCommit registers an after-commit observer (the substrate for AFTER
// triggers and the in-process journal feed). The returned function
// unregisters it.
func (db *DB) OnCommit(fn CommitHook) (remove func()) {
	id := db.hookID.Add(1)
	e := &commitEntry{id: id, fn: fn}
	db.hookMu.Lock()
	db.commitHooks = append(db.commitHooks, e)
	db.hookMu.Unlock()
	return func() {
		db.hookMu.Lock()
		defer db.hookMu.Unlock()
		for i, h := range db.commitHooks {
			if h.id == id {
				db.commitHooks = append(db.commitHooks[:i:i], db.commitHooks[i+1:]...)
				return
			}
		}
	}
}

// maxCommitBuf is the largest commit-record buffer kept between
// commits, so one huge transaction cannot pin its footprint.
const maxCommitBuf = 1 << 20

// ErrAborted wraps a BEFORE-hook veto.
var ErrAborted = errors.New("storage: transaction aborted by before-hook")

// commit validates and applies a set of buffered operations atomically,
// then delivers commit hooks (in commit order, outside the commit lock,
// so hooks may themselves commit).
func (db *DB) commit(ops []txnOp) (*CommitInfo, error) {
	info, err := db.commitLocked(ops)
	if err != nil || info.Seq == 0 {
		return info, err
	}
	db.deliverPending()
	return info, nil
}

// deliverPending drains queued CommitInfos through the commit hooks.
// Exactly one goroutine drains at a time; others (including nested
// commits made by hooks) just append and return, keeping delivery
// ordered and deadlock-free.
func (db *DB) deliverPending() {
	db.pendingMu.Lock()
	if db.delivering {
		db.pendingMu.Unlock()
		return
	}
	db.delivering = true
	for len(db.pending) > 0 {
		next := db.pending[0]
		db.pending[0] = nil // the array outlives the slice: pin no commit's rows
		db.pending = db.pending[1:]
		db.pendingMu.Unlock()
		db.hookMu.RLock()
		hooks := make([]*commitEntry, len(db.commitHooks))
		copy(hooks, db.commitHooks)
		db.hookMu.RUnlock()
		for _, h := range hooks {
			h.fn(next)
		}
		db.pendingMu.Lock()
	}
	db.delivering = false
	db.pendingMu.Unlock()
}

func (db *DB) commitLocked(ops []txnOp) (*CommitInfo, error) {
	if len(ops) == 0 {
		return &CommitInfo{}, nil
	}
	if db.readonly.Load() {
		return nil, ErrReadOnly
	}
	if db.degraded.Load() {
		return nil, db.degradedError()
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()

	// Resolve and lock tables in sorted name order; a one-op transaction
	// builds no name set.
	var buf [4]string
	sorted := append(buf[:0], ops[0].table)
	if len(ops) > 1 {
		names := map[string]bool{}
		for _, op := range ops {
			names[op.table] = true
		}
		sorted = sorted[:0]
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
	}
	var lockedBuf [4]*Table
	locked := lockedBuf[:0]
	tables := make(map[string]*Table, len(sorted))
	db.mu.RLock()
	for _, n := range sorted {
		t, ok := db.tables[n]
		if !ok {
			db.mu.RUnlock()
			return nil, fmt.Errorf("storage: no table %q", n)
		}
		tables[n] = t
	}
	db.mu.RUnlock()
	for _, n := range sorted {
		t := tables[n]
		t.mu.Lock()
		locked = append(locked, t)
	}
	unlock := func() {
		for i := len(locked) - 1; i >= 0; i-- {
			locked[i].mu.Unlock()
		}
	}

	changes, err := db.prepare(tables, ops)
	if err != nil {
		unlock()
		return nil, err
	}

	// BEFORE hooks may veto or rewrite New rows.
	db.hookMu.RLock()
	hasBefore := false
	for _, c := range changes {
		if len(db.beforeHooks[c.Table]) > 0 {
			hasBefore = true
			break
		}
	}
	if hasBefore {
		for i := range changes {
			c := &changes[i]
			for _, h := range db.beforeHooks[c.Table] {
				if err := h.fn(c); err != nil {
					db.hookMu.RUnlock()
					unlock()
					return nil, fmt.Errorf("%w: %w", ErrAborted, err)
				}
			}
			if c.Kind != Delete {
				norm, err := tables[c.Table].schema.validateRow(c.New)
				if err != nil {
					db.hookMu.RUnlock()
					unlock()
					return nil, fmt.Errorf("storage: before-hook produced invalid row: %w", err)
				}
				c.New = norm
			}
		}
	}
	db.hookMu.RUnlock()

	info := &CommitInfo{Changes: changes}
	seq := db.seq.Load() + 1 // commitMu is held: nothing else advances seq
	if db.log != nil {
		if db.degraded.Load() {
			unlock()
			return nil, db.degradedError()
		}
		db.commitBuf = encodeCommit(db.commitBuf[:0], seq, changes)
		lsn, err := db.log.Append(recCommit, db.commitBuf)
		if cap(db.commitBuf) > maxCommitBuf {
			db.commitBuf = nil
		}
		if err != nil {
			unlock()
			// The log's on-disk state is now unknown: fail-stop. The
			// change was never applied to table state and the caller
			// sees an error, so nothing acknowledged is at risk.
			db.failStop(err)
			return nil, db.degradedError()
		}
		info.LSN = lsn
		db.noteApplied(lsn)
	}

	for i := range changes {
		c := &changes[i]
		t := tables[c.Table]
		switch c.Kind {
		case Insert:
			t.applyInsert(c.ID, c.New)
		case Update:
			t.applyUpdate(c.ID, c.Old, c.New)
		case Delete:
			t.applyDelete(c.ID, c.Old)
		}
	}
	for _, t := range locked {
		t.version++
	}
	info.Seq = db.seq.Add(1)
	unlock()

	// Queue the info for ordered hook delivery; the caller drains after
	// releasing commitMu (see commit).
	db.pendingMu.Lock()
	db.pending = append(db.pending, info)
	db.pendingMu.Unlock()
	return info, nil
}

// ErrRowTouched refuses a transaction that updates or deletes a row
// one of its earlier ops inserted, updated or deleted: a transaction
// touches a row at most once. Nothing of it is applied.
var ErrRowTouched = errors.New("storage: transaction touches a row twice")

// batch is what a transaction's ops so far did to one table: the rows
// they touched and the primary keys they took and freed.
type batch struct {
	touched     map[RowID]bool
	took, freed map[string]bool
}

// prepare validates ops against current table state, as changed by the
// ops before each, and assigns row IDs, returning the concrete change
// list. Caller holds all table locks.
func (db *DB) prepare(tables map[string]*Table, ops []txnOp) ([]Change, error) {
	changes := make([]Change, 0, len(ops))
	// A one-op transaction cannot meet itself, and fills no batch.
	multi := len(ops) > 1
	var none batch
	batches := map[string]*batch{}
	nextIDs := map[string]RowID{}
	for _, op := range ops {
		t, b := tables[op.table], &none
		if multi {
			if b = batches[op.table]; b == nil {
				b = &batch{touched: map[RowID]bool{}, took: map[string]bool{}, freed: map[string]bool{}}
				batches[op.table] = b
			}
		}
		s := t.schema
		if op.kind != Insert && b.touched[op.id] {
			return nil, fmt.Errorf("%w: table %q row %d", ErrRowTouched, s.Name, op.id)
		}
		// taken reports whether a live row has key, as of the ops so far.
		taken := func(key string) bool {
			if b.took[key] || b.freed[key] {
				return b.took[key]
			}
			_, committed := t.lookup(key)
			return committed
		}
		switch op.kind {
		case Insert:
			row, err := s.validateRow(op.row)
			if err != nil {
				return nil, err
			}
			if t.pk != nil {
				key := s.pkKey(row)
				if taken(key) {
					return nil, fmt.Errorf("storage: table %q: duplicate primary key", s.Name)
				}
				b.take(key, "")
			}
			id, ok := nextIDs[op.table]
			if !ok {
				id = t.nextID
			}
			nextIDs[op.table] = id + 1
			b.touch(id)
			changes = append(changes, Change{Table: op.table, Kind: Insert, ID: id, New: row})
		case Update:
			old, ok := t.row(op.id)
			if !ok {
				return nil, fmt.Errorf("storage: table %q: update of missing row %d", s.Name, op.id)
			}
			row := make(Row, len(old))
			copy(row, old)
			for name, v := range op.set {
				ci := s.ColIndex(name)
				if ci < 0 {
					return nil, fmt.Errorf("storage: table %q: unknown column %q", s.Name, name)
				}
				row[ci] = v
			}
			row, err := s.validateRow(row)
			if err != nil {
				return nil, err
			}
			if t.pk != nil {
				if oldKey, newKey := s.pkKey(old), s.pkKey(row); newKey != oldKey {
					if taken(newKey) {
						return nil, fmt.Errorf("storage: table %q: update causes duplicate primary key", s.Name)
					}
					b.take(newKey, oldKey)
				}
			}
			b.touch(op.id)
			changes = append(changes, Change{Table: op.table, Kind: Update, ID: op.id, Old: old, New: row})
		case Delete:
			old, ok := t.row(op.id)
			if !ok {
				return nil, fmt.Errorf("storage: table %q: delete of missing row %d", s.Name, op.id)
			}
			if t.pk != nil {
				b.take("", s.pkKey(old))
			}
			b.touch(op.id)
			changes = append(changes, Change{Table: op.table, Kind: Delete, ID: op.id, Old: old})
		default:
			return nil, fmt.Errorf("storage: unknown op kind %d", op.kind)
		}
	}
	return changes, nil
}

// touch and take record an op in a multi-op transaction's batch: the
// row it touched, and the key it took and the key it freed ("": none).
func (b *batch) touch(id RowID) {
	if b.touched != nil {
		b.touched[id] = true
	}
}

func (b *batch) take(key, freed string) {
	if b.took == nil {
		return
	}
	if key != "" {
		b.took[key] = true
	}
	if freed != "" {
		b.freed[freed] = true
	}
}
