package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"eventdb/internal/core"
	"eventdb/internal/wiredb"
)

// TestSelectRepliesReuse: the SELECTs of one connection, interleaved
// with its INSERTs, UPDATEs and COMPACTs, reply with the same bytes as
// the same SELECTs on a fresh connection, which has no query scratch
// yet — failures and row-path queries among them.
func TestSelectRepliesReuse(t *testing.T) {
	_, srv := startServer(t, core.Config{ColumnarSealRows: 64}, Config{})
	a := rawDial(t, srv)
	a.mustOK(`TABLE {"name":"trades","key":["seq"],"columns":[{"name":"seq","kind":"int"},{"name":"ts","kind":"time"},{"name":"sym","kind":"string"},{"name":"qty","kind":"int"},{"name":"px","kind":"int"}]}`)
	a.mustOK(`TABLE {"name":"tags","key":["id"],"columns":[{"name":"id","kind":"int"},{"name":"tag","kind":"string"}]}`)
	selects := []string{
		`SELECT {"table":"trades","where":"seq >= 10 AND seq < 200 AND qty >= 500","order":[{"col":"seq"}]}`,
		`SELECT {"table":"trades","where":"seq < 300","group":["sym"],"aggs":[{"alias":"total","kind":"sum","col":"qty"},{"alias":"n","kind":"count"}]}`,
		`SELECT {"table":"trades","select":["seq","px * 2 AS dbl"],"where":"px > 50","order":[{"col":"seq","desc":true}],"limit":7,"offset":2}`,
		`SELECT {"table":"trades","aggs":[{"alias":"s","kind":"sum","col":"sym"}]}`,
		`SELECT {"table":"tags","order":[{"col":"id"}]}`,
		`SELECT {"table":"trades","where":"sym LIKE 'S1%'","group":["sym"],"aggs":[{"kind":"max","col":"ts"},{"kind":"min","col":"px"}]}`,
		`SELECT {"table":"trades","join":{"table":"tags","left":"qty","right":"id"},"order":[{"col":"trades.seq"}]}`,
		`SELECT {"table":"trades","where":"qty > 2000"}`,
	}
	seq := 0
	for round := 0; round < 6; round++ {
		for end := seq + 80; seq < end; seq++ {
			a.mustOK(fmt.Sprintf(`INSERT trades {"seq":%d,"ts":"2026-01-01T00:%02d:%02dZ","sym":"S%02d","qty":%d,"px":%d}`,
				seq, seq/60%60, seq%60, seq*7%20, seq*13%1000, seq*31%100))
		}
		a.mustOK(fmt.Sprintf(`INSERT tags {"id":%d,"tag":"t%d"}`, round*13, round))
		a.mustOK(fmt.Sprintf(`UPDATE trades {"where":"seq >= %d AND seq < %d","set":{"qty":%d}}`, round*40, round*40+9, 600+round))
		if round%2 == 1 {
			a.mustOK("COMPACT trades")
		}
		for _, q := range selects {
			got, want := a.ask(q), rawDial(t, srv).ask(q)
			if got != want {
				t.Fatalf("round %d, %s:\n  on the connection %q\n  on a fresh one   %q", round, q, got, want)
			}
		}
	}
}

// TestConcurrentSelects: two connections SELECT, each in its own
// scratch, while a third inserts and COMPACT seals. Every aggregate is
// of a whole prefix of the inserts, and every scan of the preloaded
// range returns exactly its rows.
func TestConcurrentSelects(t *testing.T) {
	_, srv := startServer(t, core.Config{ColumnarSealRows: 64}, Config{})
	w := rawDial(t, srv)
	w.mustOK(`TABLE {"name":"trades","key":["seq"],"columns":[{"name":"seq","kind":"int"},{"name":"sym","kind":"string"},{"name":"qty","kind":"int"}]}`)
	insert := func(seq int) {
		w.mustOK(fmt.Sprintf(`INSERT trades {"seq":%d,"sym":"S%02d","qty":%d}`, seq, seq%7, seq%50))
	}
	const preload, rows = 200, 1200
	for seq := 0; seq < preload; seq++ {
		insert(seq)
	}
	const (
		agg  = `SELECT {"table":"trades","aggs":[{"alias":"n","kind":"count"},{"alias":"s","kind":"sum","col":"qty"}]}`
		scan = `SELECT {"table":"trades","where":"seq >= 50 AND seq < 150","select":["seq","qty"]}`
	)
	check := func(nc net.Conn, br *bufio.Reader, q string) error {
		if _, err := fmt.Fprintf(nc, "%s\n", q); err != nil {
			return err
		}
		line, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		if !strings.HasPrefix(line, "OK ") {
			return fmt.Errorf("%s → %q", q, line)
		}
		res, err := wiredb.ParseResult(line[3:])
		if err != nil {
			return err
		}
		if q == agg {
			n, _ := res.Rows[0][0].(int64)
			s, _ := res.Rows[0][1].(int64)
			want := int64(0)
			for seq := int64(0); seq < n; seq++ {
				want += seq % 50
			}
			if n < preload || s != want {
				return fmt.Errorf("count %d and sum %d: not a prefix of the inserts (its sum is %d)", n, s, want)
			}
			return nil
		}
		seen := make(map[int64]bool)
		for _, row := range res.Rows {
			seq, _ := row[0].(int64)
			if qty, _ := row[1].(int64); seq < 50 || seq >= 150 || seen[seq] || qty != seq%50 {
				return fmt.Errorf("scan row %v", row)
			}
			seen[seq] = true
		}
		if len(seen) != 100 {
			return fmt.Errorf("scan returned %d of 100 rows", len(seen))
		}
		return nil
	}
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		wg.Add(1)
		go func() {
			defer wg.Done()
			br := bufio.NewReader(nc)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := check(nc, br, []string{agg, scan}[i%2]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for seq := preload; seq < rows; seq++ {
		insert(seq)
		if seq%150 == 0 {
			w.mustOK("COMPACT trades")
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
