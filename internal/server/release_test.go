package server

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
)

// TestReplayAcknowledgedHistory: a durable subscription's history leaves
// the daemon's memory once it is acknowledged, and REPLAY still returns
// all of it. Three seal thresholds of messages are published, delivered
// and ACKed; after COMPACT the HEALTH snapshot shows segments sealed and
// none resident, and REPLAY from LSN 0 gives every message in LSN order
// — from the segment files — on this server and after a restart, line
// for line what a server without the columnar store (the WAL alone)
// replays from the same directory.
func TestReplayAcknowledgedHistory(t *testing.T) {
	const sealRows, msgs = 64, 3 * 64
	dir := t.TempDir()
	open := func(columnarDisabled bool) (*core.Engine, *Server) {
		t.Helper()
		eng, err := core.Open(core.Config{Dir: dir, ColumnarDisabled: columnarDisabled,
			ColumnarSealRows: sealRows, ColumnarSealInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := StartConfig(eng, "127.0.0.1:0", Config{})
		if err != nil {
			eng.Close()
			t.Fatal(err)
		}
		return eng, srv
	}
	// replay returns REPLAY's pushed lines and its reply.
	replay := func(r *raw) []string {
		t.Helper()
		reply := r.mustOK("REPLAY jobs 0")
		var n int
		if _, err := fmt.Sscanf(reply, "%d", &n); err != nil || n != msgs {
			t.Fatalf("REPLAY jobs 0 → %q, want %d messages", reply, msgs)
		}
		lines := make([]string, 0, n+1)
		var last uint64
		for i := 0; i < n; i++ {
			d := r.nextQEVT()
			var lsn uint64
			if _, err := fmt.Sscanf(d.token, "h%d", &lsn); err != nil || lsn < last {
				t.Fatalf("replayed receipt %q after lsn %d", d.token, last)
			}
			last = lsn
			if i, ok := d.ev.Attrs["i"].AsInt(); !ok || int(i) != len(lines) {
				t.Fatalf("replayed message %d carries i=%v", len(lines), d.ev.Attrs["i"])
			}
			body, err := d.ev.EncodedJSON()
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, d.token+" "+string(body))
		}
		return append(lines, reply)
	}
	columnarHealth := func(r *raw) (segments, resident int) {
		t.Helper()
		var h client.Health
		if err := json.Unmarshal([]byte(r.mustOK("HEALTH format=json")), &h); err != nil {
			t.Fatal(err)
		}
		return h.Columnar.Segments, h.Columnar.ResidentSegments
	}

	eng, srv := open(false)
	sub := rawDial(t, srv)
	sub.mustOK("QSUB jobs manual ")
	pub := dial(t, srv)
	for i := 0; i < msgs; i++ {
		if _, err := pub.Publish(client.NewEvent("job", map[string]any{"i": i})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		sub.mustOK("ACK jobs " + sub.nextQEVT().token)
	}
	compact := sub.mustOK("COMPACT q_jobs format=json")
	var stats []struct {
		Segments     int `json:"segments"`
		Resident     int `json:"resident_segments"`
		SealedRows   int `json:"sealed_rows"`
		ReleasedRows int `json:"released_rows"`
	}
	if err := json.Unmarshal([]byte(compact), &stats); err != nil {
		t.Fatalf("COMPACT format=json %q: %v", compact, err)
	}
	if len(stats) != 1 || stats[0].SealedRows != msgs || stats[0].ReleasedRows != msgs || stats[0].Resident != 0 || stats[0].Segments == 0 {
		t.Fatalf("COMPACT q_jobs format=json: %s", compact)
	}
	if segs, resident := columnarHealth(sub); segs < 1 || resident != 0 {
		t.Fatalf("HEALTH: %d segments, %d resident, want every acknowledged segment released", segs, resident)
	}
	got := replay(sub)
	srv.Close()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng, srv = open(false)
	again := rawDial(t, srv)
	if segs, resident := columnarHealth(again); segs < 1 || resident != 0 {
		t.Fatalf("HEALTH after restart: %d segments, %d resident", segs, resident)
	}
	gotRestarted := replay(again)
	srv.Close()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng, srv = open(true)
	t.Cleanup(func() { srv.Close(); eng.Close() })
	want := replay(rawDial(t, srv))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("REPLAY of released history differs from the WAL's:\n got %q\nwant %q", got[len(got)-3:], want[len(want)-3:])
	}
	if !reflect.DeepEqual(gotRestarted, want) {
		t.Errorf("REPLAY after restart differs from the WAL's:\n got %q\nwant %q", gotRestarted[len(gotRestarted)-3:], want[len(want)-3:])
	}
}
