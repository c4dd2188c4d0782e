package storage

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"

	"eventdb/internal/val"
)

// Sealed is an immutable run of a table's rows kept outside the row
// store: a sealed columnar segment. A table hands a run the rows it
// holds (Evict) and serves them from it from then on, so a sealed row
// lives once, in its segment.
type Sealed interface {
	// Zones are the run's zone maps, over every row it holds.
	Zones
	// Rows is how many rows the run holds; RowID(i), strictly ascending
	// in i, names row i.
	Rows() int
	RowID(i int) RowID
	// At returns row i's value of column col, read where the run keeps
	// it, without setting up a batch: an int allocates nothing, and a
	// string or bytes value aliases the run, as an unpacked image's
	// alias the image.
	At(col, i int) val.Value
	// DecodeRows decodes the rows whose bit is set in want (nil: every
	// row), in order and batch by batch, handing fn each one's position
	// and a row the next call overwrites, until fn returns false. It
	// reports whether fn never did.
	DecodeRows(want []uint64, fn func(i int, r Row) bool) bool
}

// SparseDiv is the residency ratio of sealed history: a sealed run is
// kept as a run while more than 1/SparseDiv of its rows are live. A
// table declines a run with no more (Evict), and takes its rows back
// from a run once it has no more (unevict), so that a row nobody
// deletes — a never-claimed queue message — pins no segment of dead
// ones. It is a constant because no workload wants another value: a
// smaller one keeps more dead rows in memory, a larger one gives runs
// back more often.
const SparseDiv = 4

// coldRun is a sealed run some of whose rows the table has evicted:
// bit i of live is set while row i of seg is a row of the table, held
// nowhere else in memory.
type coldRun struct {
	seg         Sealed
	first, last RowID
	live        []uint64
	n           int // bits set in live
	// keyed is set when the run's key column stands for its live rows'
	// entries in the table's pk, which they then do not have: the key
	// is one int column with no NULL over the run, from lo to hi. order
	// lists the run's rows by key when their keys do not ascend, as
	// concurrent writers' keys do not (see keyOrder and find).
	keyed  bool
	lo, hi int64
	order  []uint32
}

func (r *coldRun) isLive(i int) bool { return r.live[i/64]&(1<<uint(i%64)) != 0 }

// Evict hands seg the table's rows that it holds: row i of seg, cut
// from the table with image imgs[i] (Images) or reloaded with it, leaves
// the row store if that is still its stored image, and reads serve it
// from seg until an update or a delete takes it back. A row rewritten
// meanwhile stays, so any cut of the table's history is safe to hand
// over. Rows that leave for a keyed run (keyOrder) leave pk too. It
// returns how many rows left the row store: none when no more than
// 1/SparseDiv of seg's rows would (the run would be given back at once),
// or when seg's rows overlap a run already handed over. The hot zones
// are then recomputed over the rows left hot.
func (t *Table) Evict(seg Sealed, imgs []string) int {
	n := seg.Rows()
	run := &coldRun{seg: seg, first: seg.RowID(0), last: seg.RowID(n - 1), live: make([]uint64, (n+63)/64)}
	t.keyOrder(run)

	t.mu.Lock()
	defer t.mu.Unlock()
	at := sort.Search(len(t.runs), func(k int) bool { return t.runs[k].last >= run.first })
	if at < len(t.runs) && t.runs[at].first <= run.last {
		return 0
	}
	for i, img := range imgs {
		if t.rows[seg.RowID(i)] == img { // no image is empty
			run.live[i/64] |= 1 << uint(i%64)
			run.n++
		}
	}
	if run.n*SparseDiv <= n {
		return 0
	}
	var key [17]byte // an int's val.AppendKey encoding
	for i := 0; i < n; i++ {
		if run.isLive(i) {
			delete(t.rows, seg.RowID(i))
			delete(t.rewritten, seg.RowID(i))
			if run.keyed {
				delete(t.pk, string(val.AppendKey(key[:0], seg.At(t.schema.pkCols[0], i))))
			}
		}
	}
	t.runs = slices.Insert(t.runs, at, run)
	t.cold += run.n
	t.shrink()
	t.rezone()
	return run.n
}

// Images returns the ids of the table's hot rows in [lo, hi) that hold
// what their insert wrote, ascending, and their images: the rows a cut
// of the table's history takes (see Evict). A row an update rewrote is
// passed by, so that history holds rows as they were inserted and a row
// in use stays hot. The read lock is taken for a chunk of ids at a time,
// so a writer never waits for a whole cut.
func (t *Table) Images(lo, hi RowID) (ids []RowID, imgs []string) {
	const chunk = 1024
	for from := lo; from < hi; from += chunk {
		t.mu.RLock()
		for id := from; id < min(from+chunk, hi); id++ {
			if img, ok := t.rows[id]; ok {
				if _, moved := t.rewritten[id]; !moved {
					ids, imgs = append(ids, id), append(imgs, img)
				}
			}
		}
		t.mu.RUnlock()
	}
	return ids, imgs
}

// keyOrder keys run when the table's key is one int column with no NULL
// over the run, sorting its rows by key if the keys do not ascend: four
// bytes a row against a key entry's sixty. Other keys keep their entries.
func (t *Table) keyOrder(run *coldRun) {
	s := t.schema
	if len(s.pkCols) != 1 || s.Columns[s.pkCols[0]].Kind != val.KindInt {
		return
	}
	keys := make([]int64, run.seg.Rows())
	for i := range keys {
		k, isInt := run.seg.At(s.pkCols[0], i).AsInt()
		if !isInt {
			return
		}
		keys[i] = k
	}
	if !slices.IsSorted(keys) {
		run.order = make([]uint32, len(keys))
		for i := range run.order {
			run.order[i] = uint32(i)
		}
		slices.SortFunc(run.order, func(a, b uint32) int { return cmp.Compare(keys[a], keys[b]) })
	}
	run.keyed, run.lo, run.hi = true, slices.Min(keys), slices.Max(keys)
}

// lookup returns the live row whose primary key encodes to key: from pk
// or, failing that, from a keyed run whose key zone admits it. It
// matches exactly what an entry in pk would: only an int's encoding
// names a key in a run. Caller holds t.mu.
func (t *Table) lookup(key string) (RowID, bool) {
	if id, ok := t.pk[key]; ok {
		return id, true
	}
	k, isInt := keyInt(key)
	// Zones may overlap, but a live row's key is in one run only.
	for _, run := range t.runs {
		if isInt && run.keyed && run.lo <= k && k <= run.hi {
			if id, ok := run.find(t.schema.pkCols[0], k); ok {
				return id, true
			}
		}
	}
	return 0, false
}

// find returns the live row of a keyed run whose key, in column col, is
// k, by a binary search of the rows in key order. A row the table took
// back may hold a live row's key, so every row holding k is tried.
func (r *coldRun) find(col int, k int64) (RowID, bool) {
	row := func(m int) int {
		if r.order == nil {
			return m
		}
		return int(r.order[m])
	}
	key := func(m int) int64 { v, _ := r.seg.At(col, row(m)).AsInt(); return v }
	n := r.seg.Rows()
	for m := sort.Search(n, func(m int) bool { return key(m) >= k }); m < n && key(m) == k; m++ {
		if r.isLive(row(m)) {
			return r.seg.RowID(row(m)), true
		}
	}
	return 0, false
}

// keyInt returns the int whose val.AppendKey encoding key is, if any:
// its payload's last eight bytes, checked by encoding it again.
func keyInt(key string) (int64, bool) {
	if len(key) != 17 {
		return 0, false
	}
	k := int64(binary.BigEndian.Uint64([]byte(key[9:])) ^ 1<<63)
	var buf [17]byte
	return k, string(val.AppendKey(buf[:0], val.Int(k))) == key
}

// Runs returns the table's sealed runs, ascending by row id, how many
// of their rows are the table's (the rows that live in a run only), and
// the bytes the table keeps per run beside its segment: its live bitmap
// and its key order.
func (t *Table) Runs() (runs []Sealed, cold, bytes int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, run := range t.runs {
		runs = append(runs, run.seg)
		bytes += 8*cap(run.live) + 4*cap(run.order)
	}
	return runs, t.cold, bytes
}

// coldAt returns the run holding the evicted row id and its position
// there, or nil. Caller holds t.mu.
func (t *Table) coldAt(id RowID) (*coldRun, int) {
	if t.cold == 0 {
		return nil, 0
	}
	k := sort.Search(len(t.runs), func(k int) bool { return t.runs[k].last >= id })
	if k == len(t.runs) || t.runs[k].first > id {
		return nil, 0
	}
	run := t.runs[k]
	i := int(id - run.first) // the position in a run of contiguous ids
	if int(run.last-run.first) != run.seg.Rows()-1 {
		i = sort.Search(run.seg.Rows(), func(i int) bool { return run.seg.RowID(i) >= id })
	}
	if i == run.seg.Rows() || run.seg.RowID(i) != id || !run.isLive(i) {
		return nil, 0
	}
	return run, i
}

// unevict takes row id out of its sealed run, if it is in one: an
// update or a delete is about to replace or remove it. Once the run's
// live rows are down to 1/SparseDiv of it, the rest come back to the
// row store, with their pk entries if the run was keyed, and the run
// goes. Caller holds t.mu for writing.
func (t *Table) unevict(id RowID) {
	run, i := t.coldAt(id)
	if run == nil {
		return
	}
	run.live[i/64] &^= 1 << uint(i%64)
	run.n--
	t.cold--
	if run.n*SparseDiv > run.seg.Rows() {
		return
	}
	run.seg.DecodeRows(run.live, func(i int, r Row) bool {
		t.rows[run.seg.RowID(i)] = t.packRow(r)
		t.hot.widen(r)
		if run.keyed {
			t.pk[t.schema.pkKey(r)] = run.seg.RowID(i)
		}
		return true
	})
	t.rowsMax = max(t.rowsMax, len(t.rows))
	t.pkMax = max(t.pkMax, len(t.pk))
	t.cold -= run.n
	t.runs = slices.DeleteFunc(t.runs, func(r *coldRun) bool { return r == run })
}
