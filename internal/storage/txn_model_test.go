package storage_test

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"eventdb/internal/columnar"
	"eventdb/internal/storage"
	"eventdb/internal/val"
)

// The model of TestTxnMatchesModel: each table's rows by id, and the id
// its next insert gets. A transaction is its ops applied in order, each
// to the state the ops before it left: it is refused whole when one of
// them touches a row an earlier one touched, addresses a row that is
// not there, or gives a row a key that a live row holds.

type txnOp struct {
	kind  storage.ChangeKind
	table string
	id    storage.RowID
	row   storage.Row          // insert
	set   map[string]val.Value // update
}

type txnModel struct {
	rows   map[string]map[storage.RowID]storage.Row
	nextID map[string]storage.RowID
}

var errModelRefused = errors.New("model: refused")

// key is the primary key of a row of table: k for "ti", (a, b) for
// "ts".
func modelKey(table string, r storage.Row) string {
	if table == "ti" {
		return r[0].String()
	}
	return r[0].String() + "\x00" + r[1].String()
}

func modelKeyVals(table string, r storage.Row) []val.Value {
	if table == "ti" {
		return r[:1]
	}
	return r[:2]
}

func rowImage(r storage.Row) string {
	var b []byte
	for _, v := range r {
		b = val.AppendBinary(b, v)
	}
	return string(b)
}

// apply runs ops against the model: it returns the changes a commit
// hands its hooks, or errModelRefused or storage.ErrRowTouched, in
// which case the model is unchanged.
func (m *txnModel) apply(schemas map[string]*storage.Schema, ops []txnOp) ([]string, error) {
	staged := map[string]map[storage.RowID]storage.Row{}
	for t, rows := range m.rows {
		staged[t] = maps(rows)
	}
	next := map[string]storage.RowID{"ti": m.nextID["ti"], "ts": m.nextID["ts"]}
	touched := map[string]map[storage.RowID]bool{"ti": {}, "ts": {}}
	taken := func(table, key string) bool {
		for _, r := range staged[table] {
			if modelKey(table, r) == key {
				return true
			}
		}
		return false
	}
	var changes []string
	for _, op := range ops {
		rows := staged[op.table]
		if op.kind != storage.Insert && touched[op.table][op.id] {
			return nil, storage.ErrRowTouched
		}
		var old, row storage.Row
		id := op.id
		switch op.kind {
		case storage.Insert:
			if taken(op.table, modelKey(op.table, op.row)) {
				return nil, errModelRefused
			}
			id, row = next[op.table], op.row
			next[op.table]++
		case storage.Update:
			var ok bool
			if old, ok = rows[id]; !ok {
				return nil, errModelRefused
			}
			row = slices.Clone(old)
			for name, v := range op.set {
				row[schemas[op.table].ColIndex(name)] = v
			}
			if k := modelKey(op.table, row); k != modelKey(op.table, old) && taken(op.table, k) {
				return nil, errModelRefused
			}
		case storage.Delete:
			var ok bool
			if old, ok = rows[id]; !ok {
				return nil, errModelRefused
			}
		}
		touched[op.table][id] = true
		if row == nil {
			delete(rows, id)
		} else {
			rows[id] = row
		}
		changes = append(changes, fmt.Sprintf("%s %s %d %q %q", op.table, op.kind, id, rowImage(old), rowImage(row)))
	}
	m.rows, m.nextID = staged, next
	return changes, nil
}

func maps(rows map[storage.RowID]storage.Row) map[storage.RowID]storage.Row {
	out := make(map[storage.RowID]storage.Row, len(rows))
	for id, r := range rows {
		out[id] = r
	}
	return out
}

// TestTxnMatchesModel holds storage.Txn to the model over seeded
// transactions of one to five ops on an int-keyed and a
// composite-string-keyed table: repeated touches of one row, updates of
// a row the transaction inserted, key swaps, re-inserts of a key freed
// earlier in the transaction and inserts that collide. After every
// commit, accepted or refused, the tables (Len, Get, GetByPK, Scan) and
// the images the BEFORE and commit hooks were handed match the model;
// the durable runs reopen the directory every 25 commits, and the last
// run seals the tables as it goes, so that rows it touches live in
// their segments.
func TestTxnMatchesModel(t *testing.T) {
	for _, mode := range []string{"volatile", "durable", "durable, columnar"} {
		t.Run(mode, func(t *testing.T) { txnModelRun(t, mode) })
	}
}

func txnModelRun(t *testing.T, mode string) {
	const txns, reopenEvery = 400, 25
	ti, err := storage.NewSchema("ti", []storage.Column{
		{Name: "k", Kind: val.KindInt, NotNull: true}, {Name: "v", Kind: val.KindInt}, {Name: "s", Kind: val.KindString},
	}, "k")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := storage.NewSchema("ts", []storage.Column{
		{Name: "a", Kind: val.KindString, NotNull: true}, {Name: "b", Kind: val.KindString, NotNull: true}, {Name: "v", Kind: val.KindInt},
	}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	schemas := map[string]*storage.Schema{"ti": ti, "ts": ts}
	dir := ""
	if mode != "volatile" {
		dir = t.TempDir()
	}
	var (
		db   *storage.DB
		mgr  *columnar.Manager
		seen []string
	)
	open := func(create bool) {
		t.Helper()
		opts := storage.Options{}
		if dir != "" {
			opts.Dir = filepath.Join(dir, "wal")
		}
		if db, err = storage.Open(opts); err != nil {
			t.Fatal(err)
		}
		for _, s := range []*storage.Schema{ti, ts} {
			if create {
				if err := db.CreateTable(s); err != nil {
					t.Fatal(err)
				}
			}
			name := s.Name
			db.OnBefore(name, func(c *storage.Change) error {
				seen = append(seen, fmt.Sprintf("before %s %s %d %q %q", name, c.Kind, c.ID, rowImage(c.Old), rowImage(c.New)))
				return nil
			})
		}
		db.OnCommit(func(ci *storage.CommitInfo) {
			for _, c := range ci.Changes {
				seen = append(seen, fmt.Sprintf("commit %s %s %d %q %q", c.Table, c.Kind, c.ID, rowImage(c.Old), rowImage(c.New)))
			}
		})
		if mode == "durable, columnar" {
			if mgr, err = columnar.Attach(db, columnar.Config{SealRows: 64, SealInterval: time.Hour, Dir: filepath.Join(dir, "segments")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	shut := func() {
		if mgr != nil {
			mgr.Close()
		}
		db.Close()
	}
	open(true)
	defer func() { shut() }()

	rng := rand.New(rand.NewSource(26))
	m := &txnModel{
		rows:   map[string]map[storage.RowID]storage.Row{"ti": {}, "ts": {}},
		nextID: map[string]storage.RowID{"ti": 1, "ts": 1},
	}
	// Keys are drawn from small domains, so that inserts collide and
	// updates move rows onto each other's keys.
	randRow := func(table string) storage.Row {
		if table == "ti" {
			return storage.Row{val.Int(int64(rng.Intn(150))), val.Int(int64(rng.Intn(5))), val.String([]string{"", "x", "yy"}[rng.Intn(3)])}
		}
		return storage.Row{val.String(string(rune('a' + rng.Intn(10)))), val.String(string(rune('p' + rng.Intn(10)))), val.Int(int64(rng.Intn(5)))}
	}
	outcomes := map[string]int{}
	maxCold := 0
	for n := 0; n < txns; n++ {
		var ops []txnOp
		var picked []txnOp // the updates and deletes so far, to touch again
		var freed []txnOp  // rows deleted so far, whose key may come back
		inserts := map[string]int{}
		for k := 1 + rng.Intn(5); k > 0; k-- {
			table := []string{"ti", "ts"}[rng.Intn(2)]
			ids := make([]storage.RowID, 0, len(m.rows[table]))
			for id := range m.rows[table] {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			r := rng.Intn(20)
			switch {
			case r < 2 && len(picked) > 0: // touch a row again
				p := picked[rng.Intn(len(picked))]
				p.kind = []storage.ChangeKind{storage.Update, storage.Delete}[rng.Intn(2)]
				p.set = map[string]val.Value{schemas[p.table].Columns[2].Name: val.Int(9)}
				ops = append(ops, p)
			case r < 3 && inserts[table] > 0: // the row an insert of this transaction made
				ops = append(ops, txnOp{kind: storage.Delete, table: table, id: m.nextID[table]})
			case r < 5 && len(freed) > 0: // a key deleted earlier in the transaction
				f := freed[rng.Intn(len(freed))]
				row := randRow(f.table)
				copy(row, modelKeyVals(f.table, m.rows[f.table][f.id]))
				ops = append(ops, txnOp{kind: storage.Insert, table: f.table, row: row})
			case r < 10 || len(ids) == 0:
				inserts[table]++
				ops = append(ops, txnOp{kind: storage.Insert, table: table, row: randRow(table)})
			case r < 16:
				id := ids[rng.Intn(len(ids))]
				set := map[string]val.Value{}
				fresh := randRow(table)
				for ci, c := range schemas[table].Columns {
					if rng.Intn(3) == 0 {
						set[c.Name] = fresh[ci]
					}
				}
				if rng.Intn(4) == 0 { // onto another row's key: a swap's first half
					other := m.rows[table][ids[rng.Intn(len(ids))]]
					for ci, v := range modelKeyVals(table, other) {
						set[schemas[table].Columns[ci].Name] = v
					}
				}
				op := txnOp{kind: storage.Update, table: table, id: id, set: set}
				ops, picked = append(ops, op), append(picked, op)
			default:
				op := txnOp{kind: storage.Delete, table: table, id: ids[rng.Intn(len(ids))]}
				ops, picked, freed = append(ops, op), append(picked, op), append(freed, op)
			}
		}
		want, wantErr := m.apply(schemas, ops)
		txn := db.Begin()
		for _, op := range ops {
			switch op.kind {
			case storage.Insert:
				txn.InsertRow(op.table, op.row)
			case storage.Update:
				txn.Update(op.table, op.id, op.set)
			case storage.Delete:
				txn.Delete(op.table, op.id)
			}
		}
		seen = seen[:0]
		_, err := txn.Commit()
		switch {
		case wantErr == nil && err != nil:
			t.Fatalf("txn %d %v: refused with %v, the model commits it", n, ops, err)
		case wantErr != nil && err == nil:
			t.Fatalf("txn %d %v: committed, the model refuses it (%v)", n, ops, wantErr)
		case errors.Is(wantErr, storage.ErrRowTouched) != errors.Is(err, storage.ErrRowTouched):
			t.Fatalf("txn %d %v: refused with %v, the model with %v", n, ops, err, wantErr)
		}
		outcomes[fmt.Sprint(err == nil, errors.Is(err, storage.ErrRowTouched))]++
		var hooks []string
		for _, stage := range []string{"before", "commit"} {
			for _, c := range want {
				hooks = append(hooks, stage+" "+c)
			}
		}
		if !slices.Equal(seen, hooks) {
			t.Fatalf("txn %d %v: hooks saw\n%q\nwant\n%q", n, ops, seen, hooks)
		}
		if mgr != nil && rng.Intn(20) == 0 {
			stats, err := mgr.Compact("")
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range stats {
				maxCold = max(maxCold, s.ColdRows)
			}
		}
		if dir != "" && n%reopenEvery == reopenEvery-1 {
			shut()
			open(false)
		}
		checkTxnModel(t, n, db, m)
	}
	if outcomes["true false"] == 0 || outcomes["false true"] == 0 || outcomes["false false"] == 0 || mgr != nil && maxCold == 0 {
		t.Fatalf("outcomes %v, at most %d rows in segments alone: the model proved nothing", outcomes, maxCold)
	}
	t.Logf("outcomes (committed, touched twice): %v; at most %d rows in segments alone", outcomes, maxCold)
}

// checkTxnModel holds every read of both tables to the model.
func checkTxnModel(t *testing.T, n int, db *storage.DB, m *txnModel) {
	t.Helper()
	for _, table := range []string{"ti", "ts"} {
		tbl, _ := db.Table(table)
		rows := m.rows[table]
		if tbl.Len() != len(rows) {
			t.Fatalf("txn %d: %s has %d rows, the model %d", n, table, tbl.Len(), len(rows))
		}
		var want, got []string
		for id, r := range rows {
			want = append(want, fmt.Sprintf("%d %q", id, rowImage(r)))
			if g, ok := tbl.Get(id); !ok || rowImage(g) != rowImage(r) {
				t.Fatalf("txn %d: %s Get(%d) = %v %v, want %v", n, table, id, g, ok, r)
			}
			if g, gid, ok := tbl.GetByPK(modelKeyVals(table, r)...); !ok || gid != id || rowImage(g) != rowImage(r) {
				t.Fatalf("txn %d: %s GetByPK(%v) = %d %v %v, want %d %v", n, table, modelKeyVals(table, r), gid, g, ok, id, r)
			}
		}
		tbl.Scan(func(id storage.RowID, r storage.Row) bool {
			got = append(got, fmt.Sprintf("%d %q", id, rowImage(r)))
			return true
		})
		sort.Strings(want)
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Fatalf("txn %d: %s scans\n%q\nwant\n%q", n, table, got, want)
		}
	}
}
