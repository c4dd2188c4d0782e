package repl_test

import (
	"bytes"
	"errors"
	"testing"

	"eventdb/internal/repl"
	"eventdb/internal/storage"
	"eventdb/internal/val"
	"eventdb/internal/wal"
)

// commitRecord returns the WAL record a one-row insert commits, read
// back with storage.DB.Follow as the leader's stream reads it.
func commitRecord(f *testing.F) wal.Record {
	f.Helper()
	db, err := storage.Open(storage.Options{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	defer db.Close()
	s, err := storage.NewSchema("trades", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
		{Name: "sym", Kind: val.KindString, NotNull: true},
	}, "id")
	if err != nil {
		f.Fatal(err)
	}
	if err := db.CreateTable(s); err != nil {
		f.Fatal(err)
	}
	lsn := db.WAL().NextLSN()
	if _, err := db.Insert("trades", map[string]val.Value{"id": val.Int(7), "sym": val.String("A\nB")}); err != nil {
		f.Fatal(err)
	}
	var rec wal.Record
	errDone := errors.New("read the commit")
	err = db.Follow(lsn, make(chan struct{}), func(recs []wal.Record) error {
		rec = recs[0]
		rec.Data = bytes.Clone(rec.Data)
		return errDone
	})
	if !errors.Is(err, errDone) {
		f.Fatalf("reading the commit record: %v", err)
	}
	return rec
}

// FuzzReplRecord holds the one codec of a REPLICATE stream: ParseRecord
// never panics, whatever a line holds, and every line AppendRecord
// renders parses back to the record it rendered.
func FuzzReplRecord(f *testing.F) {
	rec := commitRecord(f)
	line, err := repl.AppendRecord(nil, rec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec.LSN, rec.Type, rec.Data, string(line[len("REPL "):]))
	f.Add(uint64(0), uint8(0), []byte(nil), "")
	f.Add(uint64(1<<64-1), uint8(255), []byte("line1\nline2\x00\xff"), `42 {"t":7,"d":null}`)
	f.Add(uint64(3), uint8(1), []byte{}, `3 {"t":256,"d":"!!"}`)
	f.Fuzz(func(t *testing.T, lsn uint64, typ uint8, data []byte, rest string) {
		repl.ParseRecord(rest)

		line, err := repl.AppendRecord(nil, wal.Record{LSN: lsn, Type: typ, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		if bytes.IndexByte(line, '\n') >= 0 {
			t.Fatalf("rendered line holds a newline: %q", line)
		}
		tail, ok := bytes.CutPrefix(line, []byte("REPL "))
		if !ok {
			t.Fatalf("rendered line = %q, want the REPL prefix", line)
		}
		got, err := repl.ParseRecord(string(tail))
		if err != nil {
			t.Fatalf("ParseRecord(%q): %v", tail, err)
		}
		if got.LSN != lsn || got.Type != typ || !bytes.Equal(got.Data, data) {
			t.Fatalf("round trip of (%d, %d, %q) = (%d, %d, %q)", lsn, typ, data, got.LSN, got.Type, got.Data)
		}
	})
}
