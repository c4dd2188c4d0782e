package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eventdb/client"
)

// dbmix: text wire, in-memory. The daemon is used as the paper means
// it: a database whose inserts are captured as events and whose
// history is queried beside the writes. Set-up preloads and COMPACTs a
// trades table; an op is one fixed cycle of 18 commands on A: 16
// INSERTs (each complete when its captured db.trades.insert event
// reaches B), one zone-map-prunable scan and one kernel-heavy grouped
// aggregate (each complete when its reply has been checked). Both
// queries address only preloaded seq ranges, so their cost does not
// grow with the rows a faster build inserts, and because the cycle is
// fixed a scan gain bought with a slower insert shows as no change.
type dbmix struct {
	seed  uint64
	sizes dbmixSizes

	// The generator's own row model of the preloaded range: every
	// column is an integer, a short string or a whole-second time, so
	// equality with the daemon's answers is exact.
	qty []int16
	sym []uint8
	px  []int32
	// aggWant is the grouped aggregate over seq < aggBelow, from the model.
	aggWant map[string][2]int64

	sub     *client.Subscription
	check   *subCheck
	recv    func() (int64, bool)
	selDone chan selResult

	// Traced runs only: the round trips of the cycle's commands by name
	// (A's goroutine), when each recent INSERT was sent, and how long
	// after that its captured event reached B (B's goroutine).
	rtt     map[string][]float64
	sentNS  [captureRing]atomic.Int64
	capture []float64
}

type dbmixSizes struct {
	preload  int // rows inserted and sealed during set-up
	scanSpan int // seq range of the prunable scan
	aggRows  int // the aggregate covers seq < aggRows
}

// The full sizes fit the contract's time cap: 100,000 rows preload in
// about 2.5 s and seal into 12 segments of 8,192 rows. The aggregate
// covers half a segment's worth of rows (zone maps prune the other
// eleven segments), which at the introducing commit costs about as
// much as the cycle's 16 inserts and its scan together, so no one
// command decides the cycle.
var (
	dbmixFull  = dbmixSizes{preload: 100_000, scanSpan: 2000, aggRows: 4096}
	dbmixSmoke = dbmixSizes{preload: 6000, scanSpan: 500, aggRows: 2000}
)

const (
	dbTable      = "trades"
	dbSyms       = 50
	dbInserts    = 16 // INSERTs per cycle
	dbCycle      = dbInserts + 2
	dbScanMinQty = 900
	// captureRing outsizes the INSERTs that can be in flight at once.
	captureRing = 64
	// preloadPipeline is how many INSERTs set-up keeps in flight on
	// each connection; the goroutines wait on replies, they do not
	// generate load.
	preloadPipeline = 16
)

var dbEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

type selResult struct {
	k  int64
	t  time.Time
	ok bool
}

func newDBMix(seed uint64, sizes dbmixSizes) *dbmix {
	w := &dbmix{seed: seed, sizes: sizes, aggWant: make(map[string][2]int64)}
	n := sizes.preload
	w.qty, w.sym, w.px = make([]int16, n), make([]uint8, n), make([]int32, n)
	for i := 0; i < n; i++ {
		w.sym[i], w.qty[i], w.px[i] = w.rowModel(int64(i))
		if i < w.aggBelow() {
			g := w.aggWant[dbSymName(w.sym[i])]
			w.aggWant[dbSymName(w.sym[i])] = [2]int64{g[0] + int64(w.qty[i]), g[1] + 1}
		}
	}
	return w
}

// rowModel derives row seq's columns from the seed.
func (w *dbmix) rowModel(seq int64) (sym uint8, qty int16, px int32) {
	return uint8(rnd(w.seed, streamSym, uint64(seq)) % dbSyms),
		int16(rnd(w.seed, streamQty, uint64(seq)) % 1000),
		int32(rnd(w.seed, streamPx, uint64(seq)) % 10000)
}

func dbSymName(i uint8) string { return fmt.Sprintf("S%02d", i) }
func dbTime(seq int64) string {
	return dbEpoch.Add(time.Duration(seq) * time.Second).Format(time.RFC3339)
}
func (w *dbmix) aggBelow() int     { return w.sizes.aggRows }
func (w *dbmix) name() string      { return "dbmix" }
func (w *dbmix) durable() bool     { return false }
func (w *dbmix) batch() int        { return 1 }
func (w *dbmix) kind() string      { return "cycle" }
func (w *dbmix) openRate() float64 { return openRates["dbmix"] }

func (w *dbmix) dialOpts() []client.Option { return nil }

// insertSeq is the seq of the row the j-th timed INSERT adds: they
// continue after the preloaded range, 16 per op.
func (w *dbmix) insertSeq(j int64) int64 { return int64(w.sizes.preload) + j }

func (w *dbmix) rowValues(seq int64) map[string]any {
	sym, qty, px := w.rowModel(seq)
	return map[string]any{"seq": seq, "ts": dbTime(seq), "sym": dbSymName(sym), "qty": int64(qty), "px": int64(px)}
}

func (w *dbmix) tableSpec() client.TableSpec {
	return client.TableSpec{Name: dbTable, Key: []string{"seq"}, Columns: []client.ColumnSpec{
		{Name: "seq", Kind: "int"}, {Name: "ts", Kind: "time"}, {Name: "sym", Kind: "string"},
		{Name: "qty", Kind: "int"}, {Name: "px", Kind: "int"},
	}}
}

// scanLo is where op k's scan starts, inside the preloaded range.
func (w *dbmix) scanLo(k int64) int64 {
	return int64(rnd(w.seed, streamScan, uint64(k)) % uint64(w.sizes.preload-w.sizes.scanSpan))
}

func (w *dbmix) scanSpec(k int64) client.QuerySpec {
	lo := w.scanLo(k)
	return client.QuerySpec{Table: dbTable,
		Where: fmt.Sprintf("seq >= %d AND seq < %d AND qty >= %d", lo, lo+int64(w.sizes.scanSpan), dbScanMinQty)}
}

func (w *dbmix) aggSpec() client.QuerySpec {
	return client.QuerySpec{Table: dbTable,
		Where: fmt.Sprintf("seq < %d", w.aggBelow()),
		Group: []string{"sym"},
		Aggs:  []client.AggSpec{{Alias: "total", Kind: "sum", Col: "qty"}, {Alias: "n", Kind: "count"}}}
}

func (w *dbmix) hashInputs(ih *inputHash) {
	spec, _ := json.Marshal(w.tableSpec())
	ih.add("TABLE %s", spec)
	for i := 0; i < w.sizes.preload; i++ {
		ih.add("row %d %d %d %d", i, w.sym[i], w.qty[i], w.px[i])
	}
	ih.add("TRIG after insert; SUB $type = 'db.%s.insert'", dbTable)
	ih.add("SELECT %+v", w.aggSpec())
	for k := int64(0); k < hashedOps; k++ {
		for j := k * dbInserts; j < (k+1)*dbInserts; j++ {
			ih.add("op %d INSERT %v", k, w.rowValues(w.insertSeq(j)))
		}
		ih.add("op %d SELECT %+v", k, w.scanSpec(k))
	}
}

func (w *dbmix) setup(s *session) error {
	if err := s.a.CreateTable(w.tableSpec()); err != nil {
		return fmt.Errorf("dbmix: TABLE: %w", err)
	}
	// Preload before the trigger exists, so set-up captures nothing.
	var wg sync.WaitGroup
	errs := make(chan error, 2*preloadPipeline)
	lanes := 2 * preloadPipeline
	for lane := 0; lane < lanes; lane++ {
		c := s.a
		if lane%2 == 1 {
			c = s.b
		}
		wg.Add(1)
		go func(lane int, c *client.Conn) {
			defer wg.Done()
			for seq := lane; seq < w.sizes.preload; seq += lanes {
				if _, err := c.Insert(dbTable, w.rowValues(int64(seq))); err != nil {
					errs <- fmt.Errorf("dbmix: preload seq %d: %w", seq, err)
					return
				}
			}
		}(lane, c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	if _, err := adminLine(s.d.addr, "COMPACT "+dbTable); err != nil {
		return fmt.Errorf("dbmix: %w", err)
	}
	if err := s.a.Trigger("e23cap", client.TriggerSpec{Table: dbTable, Ops: []string{"insert"}}); err != nil {
		return fmt.Errorf("dbmix: TRIG: %w", err)
	}
	sub, err := s.b.Subscribe("cap", fmt.Sprintf("$type = 'db.%s.insert'", dbTable), 2*inflightCap)
	if err != nil {
		return fmt.Errorf("dbmix: SUB: %w", err)
	}
	w.sub, w.check = sub, newSubCheck()
	// Sized so A never waits on B to post a query completion.
	w.selDone = make(chan selResult, 1<<16)
	w.rtt, w.capture = make(map[string][]float64), nil
	w.recv = func() (int64, bool) {
		ev, ok := recvEvent(s, sub.C)
		if !ok {
			return 0, false
		}
		j := w.checkCaptured(ev, &s.fb)
		if s.tr != nil && j >= 0 {
			w.capture = append(w.capture, float64(time.Now().UnixNano()-w.sentNS[j%captureRing].Load())/1e3)
		}
		return j, true
	}
	return nil
}

// checkCaptured grades a captured insert event against the row model
// and returns which timed INSERT it belongs to.
func (w *dbmix) checkCaptured(ev *client.Event, f *failures) int64 {
	seq := attrInt(ev, "new_seq")
	if seq < int64(w.sizes.preload) {
		f.wrong++
		return -1
	}
	sym, qty, px := w.rowModel(seq)
	gotSym, _ := ev.Attrs["new_sym"].AsString()
	gotTS, _ := ev.Attrs["new_ts"].AsString()
	if gotSym != dbSymName(sym) || attrInt(ev, "new_qty") != int64(qty) || attrInt(ev, "new_px") != int64(px) || gotTS != dbTime(seq) {
		f.wrong++
	}
	return seq - int64(w.sizes.preload)
}

func (w *dbmix) sendBatch(s *session, k int64, n int) error {
	for i := int64(0); i < int64(n); i++ {
		if err := w.sendOne(s, k+i); err != nil {
			return err
		}
	}
	return nil
}

// command runs one command of op k's cycle on A. On traced runs it
// records a span under the op's own and the round trip under name.
func (w *dbmix) command(s *session, k int64, name string, run func() error) error {
	if s.tr == nil {
		return run()
	}
	sp := s.tr.child("client."+name, k, s.sendSpan)
	t0 := time.Now()
	err := run()
	w.rtt[name] = append(w.rtt[name], float64(time.Since(t0))/1e3)
	s.tr.end(sp)
	return err
}

// sendOne sends op k's whole cycle, one round trip per command. It
// carries on after an error, so that B is told of both queries whatever
// happened, and returns the first error.
func (w *dbmix) sendOne(s *session, k int64) error {
	var first error
	note := func(err error) {
		if first == nil {
			first = err
		}
	}
	for j := k * dbInserts; j < (k+1)*dbInserts; j++ {
		if s.tr != nil {
			w.sentNS[j%captureRing].Store(time.Now().UnixNano())
		}
		note(w.command(s, k, "insert", func() error {
			_, err := s.a.Insert(dbTable, w.rowValues(w.insertSeq(j)))
			return err
		}))
	}
	var res *client.Result
	err := w.command(s, k, "scan", func() (err error) {
		res, err = s.a.Select(w.scanSpec(k))
		return err
	})
	w.selDone <- selResult{k, time.Now(), err == nil && w.checkScan(k, res, &s.fa)}
	note(err)
	err = w.command(s, k, "agg", func() (err error) {
		res, err = s.a.Select(w.aggSpec())
		return err
	})
	w.selDone <- selResult{k, time.Now(), err == nil && w.checkAgg(res, &s.fa)}
	note(err)
	return first
}

// colIndexes maps the named columns to their positions in res.
func colIndexes(res *client.Result, names ...string) ([]int, bool) {
	out := make([]int, len(names))
	for i, name := range names {
		out[i] = -1
		for j, c := range res.Columns {
			if c == name {
				out[i] = j
			}
		}
		if out[i] < 0 {
			return nil, false
		}
	}
	return out, true
}

// checkScan grades a scan reply against the row model: exactly the
// model's rows in [lo, lo+span) with qty >= dbScanMinQty, each once,
// every column equal.
func (w *dbmix) checkScan(k int64, res *client.Result, f *failures) bool {
	lo := w.scanLo(k)
	span := int64(w.sizes.scanSpan)
	want := 0
	for seq := lo; seq < lo+span; seq++ {
		if w.qty[seq] >= dbScanMinQty {
			want++
		}
	}
	cols, ok := colIndexes(res, "seq", "ts", "sym", "qty", "px")
	if !ok || len(res.Rows) != want {
		f.wrong++
		return false
	}
	seen := make([]bool, span)
	for _, row := range res.Rows {
		seq, _ := row[cols[0]].(int64)
		if seq < lo || seq >= lo+span || seen[seq-lo] || w.qty[seq] < dbScanMinQty ||
			row[cols[1]] != dbTime(seq) || row[cols[2]] != dbSymName(w.sym[seq]) ||
			row[cols[3]] != int64(w.qty[seq]) || row[cols[4]] != int64(w.px[seq]) {
			f.wrong++
			return false
		}
		seen[seq-lo] = true
	}
	return true
}

// checkAgg grades the grouped aggregate against the model's sums.
func (w *dbmix) checkAgg(res *client.Result, f *failures) bool {
	cols, ok := colIndexes(res, "sym", "total", "n")
	if !ok || len(res.Rows) != len(w.aggWant) {
		f.wrong++
		return false
	}
	seen := make(map[string]bool, len(res.Rows))
	for _, row := range res.Rows {
		sym, _ := row[cols[0]].(string)
		want, known := w.aggWant[sym]
		if !known || seen[sym] || row[cols[1]] != want[0] || row[cols[2]] != want[1] {
			f.wrong++
			return false
		}
		seen[sym] = true
	}
	return true
}

// await sees op k through: its 16 captured events on B, then the two
// query completions A posted. The op is complete when the later of the
// last captured event and the last reply has been seen.
func (w *dbmix) await(s *session, k int64) (time.Time, bool) {
	ok := true
	for j := k * dbInserts; j < (k+1)*dbInserts; j++ {
		ok = w.check.await(j, w.recv, &s.fb) && ok
	}
	done := time.Now()
	for i := 0; i < dbCycle-dbInserts; i++ {
		select {
		case r := <-w.selDone:
			if r.k != k {
				// A posts query completions in op order; anything else is a
				// generator bug, not a daemon failure.
				panic(fmt.Sprintf("dbmix: query completion for op %d while awaiting %d", r.k, k))
			}
			ok = ok && r.ok
			if r.t.After(done) {
				done = r.t
			}
		case <-s.stop:
			s.fb.missing++
			return time.Now(), false
		}
	}
	return done, ok
}

func (w *dbmix) finish(s *session) {
	s.fb.leftover(len(w.sub.C), w.sub.Dropped())
}
