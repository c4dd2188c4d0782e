package testnet

import (
	"errors"
	"net"
	"testing"
	"time"

	"eventdb/client"
	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/queue"
	"eventdb/internal/server"
	"eventdb/internal/vfs"
)

// End-to-end chaos tests: a full engine + server + retrying client
// stack under injected disk faults and connection kills. These are the
// PR's acceptance harness for the self-protection plane — the property
// under test is always the same: an acked write is never lost, a
// retried write is never double-ingested, and the client's channels
// survive every failure the fault injectors can produce.

// fastRetry keeps reconnect/backoff delays test-sized.
var fastRetry = client.RetryPolicy{
	MaxAttempts: 400,
	BaseDelay:   2 * time.Millisecond,
	MaxDelay:    40 * time.Millisecond,
}

// collectIDs drains durable deliveries until every id in [0, want) has
// arrived or the deadline passes, acking as it goes (ignoring ack
// failures: a lost ack just means a redelivery, and the union-by-id
// accounting absorbs duplicates). With checkFirsts it also enforces
// the exactly-once staging invariant: a republished PUBT sequence must
// not stage a second message, and a second staged message would
// surface as a second first-attempt delivery for the same id —
// redeliveries after a visibility timeout carry Attempt >= 2 and never
// trip it. The check only holds while consumer connections stay up:
// killing a consumer Releases its unacked deliveries, which resets
// their attempt counter back to 1 by design.
func collectIDs(t *testing.T, ch <-chan client.Delivery, want int, deadline time.Duration, checkFirsts bool) map[int64]int {
	t.Helper()
	seen := make(map[int64]int)
	firsts := make(map[int64]int)
	timeout := time.After(deadline)
	for len(seen) < want {
		select {
		case d, ok := <-ch:
			if !ok {
				t.Fatalf("durable channel closed with %d/%d ids", len(seen), want)
			}
			i, okInt := d.Event.Attrs["i"].AsInt()
			if !okInt {
				t.Fatalf("delivery without integer id: %v", d.Event)
			}
			seen[i]++
			if checkFirsts && d.Attempt <= 1 {
				firsts[i]++
				if firsts[i] > 1 {
					t.Fatalf("id %d staged twice (two first-attempt deliveries): PUBT dedupe failed", i)
				}
			}
			d.Ack()
		case <-timeout:
			t.Fatalf("timed out with %d/%d ids delivered", len(seen), want)
		}
	}
	return seen
}

// TestChaosDiskFaultDegradedRecover drives the storage half of the
// lifecycle end to end over the wire: publishes stage durably into a
// queue (fsync per commit), an injected fsync fault fail-stops the
// engine mid-publish, the retrying client keeps republishing the same
// PUBT sequence through the outage, an operator RECOVER resumes
// writes, and at the end received ∪ redelivered == published with
// nothing double-ingested.
func TestChaosDiskFaultDegradedRecover(t *testing.T) {
	fsys := vfs.NewFaulty(nil)
	eng, err := core.Open(core.Config{Dir: t.TempDir(), SyncEvery: 1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{
		Queue: queue.Config{VisibilityTimeout: 150 * time.Millisecond, MaxAttempts: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r, err := client.WithRetry(srv.Addr(), fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dsub, err := r.DurableSubscribe("staged", "", client.DurableOptions{Buffer: 4096})
	if err != nil {
		t.Fatal(err)
	}

	const before, after = 20, 10
	publish := func(i int) error {
		_, err := r.Publish(event.New("e", map[string]any{"i": i}))
		return err
	}
	for i := 0; i < before; i++ {
		if err := publish(i); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	// Break the device. The next publish fails its staging commit,
	// fail-stops the engine, and then keeps being refused with "ERR
	// degraded" — all retryable from the client's point of view.
	fsys.FailSyncsAfter(0, errors.New("injected EIO"))
	inFlight := make(chan error, 1)
	go func() { inFlight <- publish(before) }()

	waitUntil(t, 10*time.Second, "engine degraded", func() bool {
		deg, _ := eng.Degraded()
		return deg
	})
	if h, err := r.Health(); err == nil && !h.Degraded {
		t.Error("HEALTH does not report degraded during fail-stop")
	}

	// Operator path: heal the device, RECOVER over a fresh connection.
	fsys.Heal()
	op, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	if err := op.Recover(); err != nil {
		t.Fatalf("RECOVER: %v", err)
	}
	if deg, cause := eng.Degraded(); deg {
		t.Fatalf("still degraded after RECOVER: %s", cause)
	}

	// The in-flight publish must now land through its retry loop.
	select {
	case err := <-inFlight:
		if err != nil {
			t.Fatalf("publish through outage: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("publish stuck after RECOVER")
	}
	for i := before + 1; i < before+after; i++ {
		if err := publish(i); err != nil {
			t.Fatalf("publish %d after recover: %v", i, err)
		}
	}

	const total = before + after
	collectIDs(t, dsub.C, total, 30*time.Second, true)
	// Ingested counts evaluation attempts: the 30 publishes that landed
	// plus one for the attempt whose staging commit tripped the
	// fail-stop (every later retry was refused at dispatch, before
	// evaluation) — or none, when the commit that tripped it was the
	// consumer's claim of message 19 and the publish was refused from
	// the start. More than that would mean a republish was re-ingested.
	if got := eng.Ingested(); got != total && got != total+1 {
		t.Errorf("engine ingested %d events, want %d or %d (30 landed, at most 1 failed attempt)", got, total, total+1)
	}
}

// TestChaosKillReconnectResume severs every server connection
// repeatedly in the middle of a publish stream and checks the retrying
// client heals the session each time: SUB, CQ, QSUB, and PATTERN
// registrations all re-attach, every acked publish is delivered to the
// durable queue exactly once by id, and the engine never double-ingests
// a republished event.
func TestChaosKillReconnectResume(t *testing.T) {
	eng, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := WrapListener(ln, nil)
	srv := server.ServeListener(eng, fln, server.Config{
		Queue: queue.Config{VisibilityTimeout: 150 * time.Millisecond, MaxAttempts: 1000},
	})
	defer srv.Close()

	r, err := client.WithRetry(srv.Addr(), fastRetry)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// One sink of every kind, all expected to survive the kills.
	sub, err := r.Subscribe("live", "", 8192)
	if err != nil {
		t.Fatal(err)
	}
	dsub, err := r.DurableSubscribe("staged", "", client.DurableOptions{Buffer: 8192})
	if err != nil {
		t.Fatal(err)
	}
	cqsub, err := r.ContinuousQuery("counts", client.CQSpec{
		Filter: "i >= 0",
		Aggs:   []client.CQAgg{{Alias: "n", Kind: client.Count}},
		Window: client.CQWindow{Kind: client.CountWindow, Size: 64},
	}, 8192)
	if err != nil {
		t.Fatal(err)
	}
	// The pattern's step types are never published, so it contributes no
	// composite ingests and the final Ingested() accounting stays exact.
	if err := r.Pattern("never", client.PatternSpec{Steps: []client.PatternStep{
		{Alias: "a", Type: "chaos-x"},
		{Alias: "b", Type: "chaos-y"},
	}}); err != nil {
		t.Fatal(err)
	}

	const total = 200
	for i := 0; i < total; i++ {
		if i%40 == 20 {
			fln.KillAll()
		}
		if _, err := r.Publish(event.New("e", map[string]any{"i": i})); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if r.Reconnects() == 0 {
		t.Fatal("kills never forced a reconnect — the fault injection is not biting")
	}

	// Every acked publish reaches the durable queue (dups from
	// redelivery tolerated, absences not). First-attempt accounting is
	// off here: killed consumers Release their unacked deliveries, which
	// legitimately resets attempts. The Ingested() check below is the
	// dedupe proof instead.
	collectIDs(t, dsub.C, total, 30*time.Second, false)
	// And none was ingested twice despite the republishes.
	if got := eng.Ingested(); got != total {
		t.Errorf("engine ingested %d events, want %d (PUBT dedupe across reconnects)", got, total)
	}

	// The ephemeral sinks re-attached: events published after the last
	// reconnect flow again. Publish sentinels until both channels yield
	// one (earlier events may have died with a killed connection).
	waitSentinel := func(name string, drain func() bool) {
		deadline := time.After(10 * time.Second)
		for {
			if _, err := r.Publish(event.New("e", map[string]any{"i": total, "sentinel": true})); err != nil {
				t.Fatalf("sentinel publish: %v", err)
			}
			select {
			case <-deadline:
				t.Fatalf("%s never resumed after reconnect", name)
			case <-time.After(20 * time.Millisecond):
			}
			if drain() {
				return
			}
		}
	}
	waitSentinel("SUB", func() bool {
		for {
			select {
			case <-sub.C:
				return true
			default:
				return false
			}
		}
	})
	waitSentinel("CQ", func() bool {
		select {
		case <-cqsub.C:
			return true
		default:
			return false
		}
	})

	// The pattern survived too: still registered engine-side.
	if st := eng.PatternStats(); st.Registered != 1 {
		t.Errorf("patterns registered after reconnects = %d, want 1", st.Registered)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
