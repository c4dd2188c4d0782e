package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/columnar"
	"eventdb/internal/core"
	"eventdb/internal/storage"
	"eventdb/internal/testnet"
)

// backlog binds durable queue name (QSUB, then UNSUB: the binding
// outlives the consumer) and publishes n events into it, numbered from
// 0 in attribute "n".
func backlog(t *testing.T, srv *Server, name string, n int) {
	t.Helper()
	binder := rawDial(t, srv)
	binder.mustOK("QSUB " + name + " manual ")
	binder.mustOK("UNSUB " + name)
	evs := make([]*client.Event, n)
	for i := range evs {
		evs[i] = client.NewEvent("e", map[string]any{"n": i})
	}
	if got, err := dial(t, srv).PublishBatch(evs); err != nil || got != n {
		t.Fatalf("PublishBatch = %d, %v", got, err)
	}
}

// TestQSubBacklogLeavesInBursts counts the daemon's writes: a consumer
// that acknowledges one message at a time against a backlog is sent its
// deliveries in bursts — once its window has cycled, at most one write
// per 32 QEVTs (half a window of 256 is 128 to a write when nothing
// else intervenes) — in order, each exactly once, with the counters an
// operator reads agreeing.
func TestQSubBacklogLeavesInBursts(t *testing.T) {
	eng, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var perWrite []int // QEVT lines in each write that carried any
	srv := ServeListener(eng, testnet.WrapListener(ln, func(fc *testnet.Conn) {
		fc.OnWrite(func(p []byte) {
			if n := bytes.Count(p, []byte("QEVT ")); n > 0 {
				mu.Lock()
				perWrite = append(perWrite, n)
				mu.Unlock()
			}
		})
	}), Config{})
	defer srv.Close()

	const total, window = 1024, defaultQueuePrefetch
	backlog(t, srv, "jobs", total)
	sub := rawDial(t, srv)
	sub.mustOK("QSUB jobs manual ")
	for i := 0; i < total; i++ {
		d := sub.nextQEVT()
		if got := attrN(t, d.ev); got != i || d.attempt != 1 {
			t.Fatalf("delivery %d carries n=%d attempt=%d", i, got, d.attempt)
		}
		sub.mustOK("ACK jobs " + d.token)
	}
	sub.expectQuiet(50 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	t.Logf("QEVTs per write: %v", perWrite)
	lines, writes := 0, 0
	for _, n := range perWrite {
		if lines >= window {
			writes++
		}
		lines += n
	}
	if lines != total {
		t.Fatalf("%d QEVT lines written, want %d", lines, total)
	}
	if cycled := total - window; writes*32 > cycled {
		t.Errorf("after the first window, %d QEVTs took %d writes (%v): more than one per 32", cycled, writes, perWrite)
	}

	body, _ := strings.CutPrefix(sub.ask("HEALTH format=json"), "OK ")
	var h struct {
		QSub struct{ Delivered, Bursts, ClaimCommits int } `json:"qsub"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("HEALTH json %q: %v", body, err)
	}
	if q := h.QSub; q.Delivered != total || q.Bursts == 0 || q.Bursts*32 > total || q.ClaimCommits*32 > total {
		t.Errorf("HEALTH qsub = %+v, want %d delivered in at most %d bursts and claim commits", q, total, total/32)
	}
	if !strings.Contains(sub.ask("STATS format=json"), fmt.Sprintf(`"qsub":{"delivered":%d,`, total)) {
		t.Errorf("STATS format=json carries no qsub counters")
	}
}

// TestQSubNoPauseBelowLimit: the half-window rule applies only to a
// consumer that reached its limit. One message short of it a client
// that has stopped acknowledging still gets the next message at once;
// at the limit delivery stops, and resumes when half the window has
// been settled.
func TestQSubNoPauseBelowLimit(t *testing.T) {
	const prefetch = 8
	_, srv := startServer(t, core.Config{}, Config{QueuePrefetch: prefetch})
	sub := rawDial(t, srv)
	sub.mustOK("QSUB orders manual ")
	pub := dial(t, srv)
	publish := func(n int) {
		t.Helper()
		if _, err := pub.Publish(client.NewEvent("e", map[string]any{"n": n})); err != nil {
			t.Fatal(err)
		}
	}
	var held []qevt
	for n := 0; n < prefetch-1; n++ {
		publish(n)
		held = append(held, sub.nextQEVT())
	}
	// prefetch-1 outstanding, none acknowledged: not at the limit.
	publish(prefetch - 1)
	sub.nc.SetReadDeadline(time.Now().Add(waitQuantum / 2))
	line, err := sub.br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "QEVT ") {
		t.Fatalf("one short of the limit the next message did not arrive at once: %q, %v", line, err)
	}
	// At the limit: the next message waits.
	publish(prefetch)
	sub.expectQuiet(waitQuantum / 2)
	// Settling down to half the window releases it.
	for _, d := range held[:prefetch/2] {
		sub.mustOK("ACK orders " + d.token)
	}
	if got := attrN(t, sub.nextQEVT().ev); got != prefetch {
		t.Fatalf("after half the window was settled, got n=%d, want %d", got, prefetch)
	}
}

// copyDir copies the regular files of a directory tree as they are on
// disk at this moment: what a SIGKILL of the owning process leaves.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.Walk(from, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(from, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAckedPublishSurvivesProcessKill: under -dir every publish the
// server answered OK is in the operating system's hands by then — PUB,
// PUBT, a PUBB and a wire INSERT alike. The engine's directory is
// copied while the engine is still open, with whatever its user-space
// buffers hold left behind, which is what a SIGKILL leaves; an engine
// opened on the copy has every acknowledged event and row.
func TestAckedPublishSurvivesProcessKill(t *testing.T) {
	dir := t.TempDir()
	_, srv := startServer(t, core.Config{Dir: dir}, Config{})
	c := rawDial(t, srv)
	c.mustOK("QSUB kept manual ")
	c.mustOK("UNSUB kept")
	c.mustOK(`TABLE {"name":"t","key":["id"],"columns":[{"name":"id","kind":"int","notnull":true}]}`)
	published := 0
	event := func() string {
		published++
		return fmt.Sprintf(`{"type":"e","attrs":{"n":%d}}`, published-1)
	}
	for i := 0; i < 5; i++ {
		c.mustOK("PUB " + event())
	}
	c.mustOK("PUBT s1 1 " + event())
	c.send("PUBB 20")
	for i := 0; i < 20; i++ {
		c.send(event())
	}
	if got := c.reply(); got != "OK 20" {
		t.Fatalf("PUBB → %q", got)
	}
	c.mustOK("PUB " + event())
	c.mustOK(`INSERT t {"id": 7}`)

	killed := t.TempDir()
	copyDir(t, dir, killed)
	eng, err := core.Open(core.Config{Dir: killed})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, err := eng.EnsureQueue("kept", srv.cfg.Queue)
	if err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Ready != published {
		t.Fatalf("the copy holds %d of %d acknowledged events", st.Ready, published)
	}
	for n := 0; n < published; n++ {
		msg, ok, err := q.Dequeue("c")
		if err != nil || !ok {
			t.Fatalf("event %d: %v, %v", n, ok, err)
		}
		if got := attrN(t, msg.Event); got != n {
			t.Fatalf("event %d of the copy carries n=%d", n, got)
		}
	}
	tbl, ok := eng.DB.Table("t")
	if !ok || tbl.Len() != 1 {
		t.Fatalf("the acknowledged INSERT is not in the copy")
	}
}

// TestAckSettlesPrefetchWindow: a consumer that acknowledges a backlog
// one message at a time gets its ACKs answered before their deletes are
// logged, and the claims that refill its window delete what it
// acknowledged in one transaction each — at least 32 rows to a commit.
// The last ACK leaves nothing in flight, so it settles before its OK:
// QSTATS reads all zeros and the table's history is all dead.
func TestAckSettlesPrefetchWindow(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{})
	var mu sync.Mutex
	var perCommit []int // deletes in each commit that deleted queue rows
	remove := eng.DB.OnCommit(func(ci *storage.CommitInfo) {
		n := 0
		for i := range ci.Changes {
			if c := &ci.Changes[i]; c.Kind == storage.Delete && c.Table == "q_jobs" {
				n++
			}
		}
		if n > 0 {
			mu.Lock()
			perCommit = append(perCommit, n)
			mu.Unlock()
		}
	})
	defer remove()

	const total = 1024
	backlog(t, srv, "jobs", total)
	sub := rawDial(t, srv)
	sub.mustOK("QSUB jobs manual ")
	for i := 0; i < total; i++ {
		d := sub.nextQEVT()
		if got := attrN(t, d.ev); got != i || d.attempt != 1 {
			t.Fatalf("delivery %d carries n=%d attempt=%d", i, got, d.attempt)
		}
		sub.mustOK("ACK jobs " + d.token)
	}
	if tbl, _ := eng.DB.Table("q_jobs"); tbl.Len() != 0 {
		t.Errorf("after the last ACK's OK the queue table holds %d rows", tbl.Len())
	}
	if got := sub.ask("QSTATS jobs"); got != "OK ready=0 inflight=0 dead=0 outstanding=0" {
		t.Errorf("QSTATS after the last ACK = %q", got)
	}
	var stats []columnar.TableStats
	if err := json.Unmarshal([]byte(sub.mustOK("COMPACT q_jobs format=json")), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].SealedRows != total || stats[0].DeadRows != total {
		t.Errorf("COMPACT q_jobs = %+v, want all %d rows sealed and dead", stats, total)
	}

	mu.Lock()
	defer mu.Unlock()
	deleted, most := 0, 0
	for _, n := range perCommit {
		deleted, most = deleted+n, max(most, n)
	}
	t.Logf("deletes per commit: %v", perCommit)
	if deleted != total || most < 32 {
		t.Errorf("%d deletes in %d commits, at most %d in one; want %d, and a settlement of at least 32", deleted, len(perCommit), most, total)
	}
}

// TestAckedBeforeSettleRedeliversAfterKill: an ACK is answered before
// its delete is logged, so a process killed in between redelivers the
// acknowledged message — at-least-once — and loses none of the others.
// The copy of the directory taken between the ACK and its settlement is
// what a SIGKILL leaves (see TestAckedPublishSurvivesProcessKill).
func TestAckedBeforeSettleRedeliversAfterKill(t *testing.T) {
	dir := t.TempDir()
	_, srv := startServer(t, core.Config{Dir: dir}, Config{})
	const n = 8
	backlog(t, srv, "jobs", n)
	c := rawDial(t, srv)
	if got := c.mustOK(fmt.Sprintf("CONSUME jobs %d", n)); got != fmt.Sprint(n) {
		t.Fatalf("CONSUME → %q", got)
	}
	tokens := make([]string, n)
	for i := range tokens {
		tokens[i] = c.nextQEVT().token
	}
	// Pulled messages settle at the next claim, Reap or Close, or when
	// the last one in flight is acknowledged: no pull follows, so the
	// first ACK's delete waits.
	c.mustOK("ACK jobs " + tokens[0])

	killed := t.TempDir()
	copyDir(t, dir, killed)
	eng, err := core.Open(core.Config{Dir: killed})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, err := eng.EnsureQueue("jobs", srv.cfg.Queue)
	if err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Ready != n {
		t.Fatalf("the copy holds %+v, want all %d messages ready", st, n)
	}
	for i := 0; i < n; i++ {
		msg, ok, err := q.Dequeue("c")
		if err != nil || !ok {
			t.Fatalf("message %d of the copy: %v, %v", i, ok, err)
		}
		if got := attrN(t, msg.Event); got != i || msg.Attempt != 1 {
			t.Fatalf("message %d of the copy carries n=%d attempt %d", i, got, msg.Attempt)
		}
	}

	// On the live server the rest of the ACKs settle everything.
	for _, tok := range tokens[1:] {
		c.mustOK("ACK jobs " + tok)
	}
	if got := c.ask("QSTATS jobs"); got != "OK ready=0 inflight=0 dead=0 outstanding=0" {
		t.Errorf("QSTATS after the last ACK = %q", got)
	}
}
