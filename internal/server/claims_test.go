package server

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/queue"
)

// A claim lives in the queue alone: these tests hold a connection's
// QSTATS, ACK and NACK answers and teardown to the queue's record of who
// holds each delivery.

const shortVisibility = 50 * time.Millisecond

// stagedQueue creates a queue holding n messages, with a visibility
// timeout of vt (0: the default).
func stagedQueue(t *testing.T, eng *core.Engine, name string, n int, vt time.Duration) *queue.Queue {
	t.Helper()
	q, err := eng.EnsureQueue(name, queue.Config{VisibilityTimeout: vt})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := q.Enqueue(event.New("job", map[string]any{"n": i}), queue.EnqueueOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return q
}

// consume pulls want messages from a queue and returns their tokens.
func (r *raw) consume(name string, max, want int) []string {
	r.t.Helper()
	if got := r.mustOK("CONSUME " + name + " " + strconv.Itoa(max)); got != strconv.Itoa(want) {
		r.t.Fatalf("CONSUME %s %d → %q, want %d", name, max, got, want)
	}
	toks := make([]string, want)
	for i := range toks {
		toks[i] = r.nextQEVT().token
	}
	return toks
}

// TestQStatsOutstandingCountsLiveClaims: outstanding is what the
// connection holds now — a claim that expired and went to another
// consumer, or back to this one at its next attempt, counts once or not
// at all.
func TestQStatsOutstandingCountsLiveClaims(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{})
	stagedQueue(t, eng, "jobs", 3, shortVisibility)
	a := rawDial(t, srv)
	a.consume("jobs", 3, 3)
	time.Sleep(2 * shortVisibility)
	a.consume("jobs", 3, 3)
	if got := a.mustOK("QSTATS jobs"); got != "ready=0 inflight=3 dead=0 outstanding=3" {
		t.Fatalf("after a re-claim: QSTATS → %q, want inflight=3 outstanding=3", got)
	}
	b := rawDial(t, srv)
	time.Sleep(2 * shortVisibility)
	b.consume("jobs", 3, 3)
	if got := a.mustOK("QSTATS jobs"); got != "ready=0 inflight=3 dead=0 outstanding=0" {
		t.Fatalf("after another connection took every claim: QSTATS → %q, want outstanding=0", got)
	}
	if got := b.mustOK("QSTATS jobs"); got != "ready=0 inflight=3 dead=0 outstanding=3" {
		t.Fatalf("the claiming connection: QSTATS → %q, want outstanding=3", got)
	}
}

// TestAckAnswersFromTheQueueClaim: ACK and NACK answer OK when this
// connection holds the message's live claim at the token's attempt,
// conflict when it holds that claim at another attempt, and noreceipt
// for any other token.
func TestAckAnswersFromTheQueueClaim(t *testing.T) {
	eng, srv := startServer(t, core.Config{}, Config{})
	cases := []struct {
		name string
		vt   time.Duration // the queue's visibility timeout: short where a claim must expire
		// setup leaves the state and returns the connection that settles
		// and the token it sends; the queue is named q.
		setup func(q string) (*raw, string)
		want  string
	}{
		{"held at its attempt", 0, func(q string) (*raw, string) {
			a := rawDial(t, srv)
			return a, a.consume(q, 1, 1)[0]
		}, "OK"},
		{"pushed by its QSUB", 0, func(q string) (*raw, string) {
			a := rawDial(t, srv)
			a.mustOK("QSUB " + q + " manual ")
			return a, a.nextQEVT().token
		}, "OK"},
		{"held at another attempt", shortVisibility, func(q string) (*raw, string) {
			a := rawDial(t, srv)
			first := a.consume(q, 1, 1)[0]
			time.Sleep(2 * shortVisibility)
			a.consume(q, 1, 1)
			return a, first
		}, "ERR conflict "},
		{"malformed", 0, func(q string) (*raw, string) {
			a := rawDial(t, srv)
			a.consume(q, 1, 1)
			return a, "x-1"
		}, "ERR noreceipt "},
		{"historical", 0, func(q string) (*raw, string) {
			a := rawDial(t, srv)
			a.consume(q, 1, 1)
			return a, "h1"
		}, "ERR noreceipt "},
		{"queue not attached", 0, func(string) (*raw, string) {
			return rawDial(t, srv), "1-1"
		}, "ERR noreceipt "},
		{"settled", 0, func(q string) (*raw, string) {
			a := rawDial(t, srv)
			tok := a.consume(q, 1, 1)[0]
			a.mustOK("ACK " + q + " " + tok)
			return a, tok
		}, "ERR noreceipt "},
		{"held by another connection", 0, func(q string) (*raw, string) {
			b := rawDial(t, srv)
			return rawDial(t, srv), b.consume(q, 1, 1)[0]
		}, "ERR noreceipt "},
		{"expired to another connection", shortVisibility, func(q string) (*raw, string) {
			a, b := rawDial(t, srv), rawDial(t, srv)
			first := a.consume(q, 1, 1)[0]
			time.Sleep(2 * shortVisibility)
			b.consume(q, 1, 1)
			return a, first
		}, "ERR noreceipt "},
		{"released to another connection at its attempt", 0, func(q string) (*raw, string) {
			a, b := rawDial(t, srv), rawDial(t, srv)
			a.mustOK("QSUB " + q + " manual ")
			tok := a.nextQEVT().token
			a.mustOK("UNSUB " + q)
			if again := b.consume(q, 1, 1)[0]; again != tok {
				t.Fatalf("the released message came back as %q, want %q", again, tok)
			}
			return a, tok
		}, "ERR noreceipt "},
	}
	for _, verb := range []string{"ACK", "NACK"} {
		for i, tc := range cases {
			q := strings.ToLower(verb) + strconv.Itoa(i)
			if tc.name != "queue not attached" {
				stagedQueue(t, eng, q, 1, tc.vt)
			}
			c, tok := tc.setup(q)
			req := verb + " " + q + " " + tok
			if verb == "NACK" {
				req += " 0"
			}
			if got := c.ask(req); !strings.HasPrefix(got, tc.want) {
				t.Errorf("%s: %s → %q, want %q", tc.name, req, got, tc.want)
			}
		}
	}
}

// TestTeardownReleasesEveryClaim: a connection that closes holding
// CONSUME claims and QSUB claims on one queue hands both back at once,
// not after the visibility timeout.
func TestTeardownReleasesEveryClaim(t *testing.T) {
	// The prefetch window counts the connection's CONSUME claims too.
	eng, srv := startServer(t, core.Config{}, Config{QueuePrefetch: 6})
	q := stagedQueue(t, eng, "jobs", 6, 0)
	c := rawDial(t, srv)
	c.consume("jobs", 3, 3)
	c.mustOK("QSUB jobs manual ")
	for i := 0; i < 3; i++ {
		c.nextQEVT()
	}
	if st := q.Stats(); st.Inflight != 6 {
		t.Fatalf("before close: stats %+v, want all 6 in flight", st)
	}
	c.nc.Close()
	deadline := time.Now().Add(2 * time.Second) // the visibility timeout is 30s
	for st := q.Stats(); st != (queue.Stats{Ready: 6}); st = q.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("after close: stats %+v, want all 6 ready", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
