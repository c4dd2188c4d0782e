package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"syscall"
	"time"

	"eventdb/client"
)

// The run shape shared by every workload: two generator goroutines, A
// (the actor, on connection A) and B (the receiver, on connection B),
// drive one spawned eventdbd through a closed-loop phase and then an
// open-loop phase. B grades every op against the generator's own
// expectation, in op order, so "completed" always means "the whole
// expected result was observed and was right".

const (
	// inflightCap bounds the ops A may have sent whose result B has not
	// yet observed in the closed loop: the loop closes on delivery, not
	// on the publish acknowledgement.
	inflightCap = 1024
	// drainCap is how long after a phase's end B may keep waiting for
	// results; anything still missing then is failed.
	drainCap = 5 * time.Second
	// sessions is how many times one run repeats the run shape, each time
	// against a freshly spawned daemon: setup_s and server_rss_mb are
	// medians over them, and where the host happened to put the threads
	// of one daemon does not decide a run. It is a constant, not a flag:
	// the measured seconds are split over the sessions, so runs with
	// different counts would not be comparable.
	sessions = 3
	// closedWindow is the length of the windows the closed-loop phase is
	// cut into for throughput_p25_ops_s.
	closedWindow = 250 * time.Millisecond
	// openWindows is how many equal windows one open-loop phase is cut
	// into for deliver.p99_us, fewer when that would leave a window with
	// less than openWindowMin samples to take a 99th percentile of.
	openWindows   = 10
	openWindowMin = 100
)

// workload is one traffic mix. Op k's inputs are a pure function of
// (seed, k), so sendBatch/sendOne (on A) and await (on B) agree on
// them without talking to each other.
type workload interface {
	name() string
	// dialOpts selects the wire (text by default, binary with WithBinary).
	dialOpts() []client.Option
	// durable reports whether the daemon runs with -dir.
	durable() bool
	// batch is the number of ops A sends back-to-back per closed-loop
	// step (one PUBB, or one fixed command cycle).
	batch() int
	// openRate is the open-loop phase's fixed op rate in ops/s. It is a
	// constant of the workload definition, never derived at run time, so
	// every commit receives the same load.
	openRate() float64
	// hashInputs feeds the generated inputs to the digest.
	hashInputs(ih *inputHash)
	// setup registers subscriptions, patterns, tables and preloaded rows
	// on a fresh daemon, discarding any state of an earlier session.
	setup(s *session) error
	// sendBatch sends ops [k, k+n) on A for the closed loop.
	sendBatch(s *session, k int64, n int) error
	// sendOne sends op k on A as a single-command round trip.
	sendOne(s *session, k int64) error
	// kind names what an op is ("pub", or dbmix's "cycle") in span names.
	kind() string
	// await blocks on B until op k's whole expected result has been
	// observed (or the drain deadline passes), checks it, and returns
	// when it completed.
	await(s *session, k int64) (time.Time, bool)
	// finish runs the end-of-run checks (nothing unexpected left over).
	finish(s *session)
	// layers replays the workload's inputs through the layers it
	// exercises, for the traced run.
	layers(lr *layerRun)
}

// session is one daemon plus the two connections driving it.
type session struct {
	d    *daemon
	a, b *client.Conn
	dir  string // the daemon's -dir ("" when in-memory)

	// stop is closed when the current phase's drain deadline passes;
	// every blocking wait on B selects on it.
	stop chan struct{}
	// aborted is set once a phase hit its drain deadline: later phases
	// are skipped, the run is already incorrect.
	aborted bool

	fa, fb    failures // counted on A's and on B's goroutine
	attempted int64

	tr *tracer // nil on untraced runs
	// sendSpan is the span of the op A is sending, for a workload whose
	// op is several commands to hang their spans under.
	sendSpan int32
}

// close ends the connections and the daemon; it may be called twice.
func (s *session) close() {
	if s.a != nil {
		s.a.Close()
	}
	if s.b != nil {
		s.b.Close()
	}
	if s.d != nil {
		s.d.kill()
	}
	s.a, s.b, s.d = nil, nil, nil
}

func (s *session) failed() int64 { return s.fa.total() + s.fb.total() }

// stopped reports whether the drain deadline has passed.
func (s *session) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// publishOps sends ops [k, k+n) on c as one PublishBatch.
func publishOps(c *client.Conn, k int64, n int, event func(k int64) *client.Event) error {
	evs := make([]*client.Event, n)
	for i := range evs {
		evs[i] = event(k + int64(i))
	}
	_, err := c.PublishBatch(evs)
	return err
}

// recvEvent reads the next pushed event from a subscription's channel;
// ok is false once the drain deadline has passed or the connection has
// gone.
func recvEvent(s *session, c <-chan *client.Event) (ev *client.Event, ok bool) {
	select {
	case ev, ok = <-c:
		return ev, ok
	case <-s.stop:
		return nil, false
	}
}

// window is one closedWindow-long stretch of a closed-loop phase.
type window struct {
	ops     int64   // ops whose whole result was observed in it
	seconds float64 // its exact length
}

// closedResult is what one closed-loop phase measured: counts, so that
// the phases of several sessions add up.
type closedResult struct {
	windows  []window
	ops      int64   // ops whose whole result was observed inside the phase
	seconds  float64 // phase length
	cpuNS    int64   // daemon CPU time spent
	waitNS   int64   // time daemon threads were runnable without a CPU
	syscalls int64   // daemon read+write system calls
	ctxsw    int64   // daemon voluntary context switches
	walBytes int64   // growth of the daemon's -dir
	batchRTT []float64
}

func (r *closedResult) add(o closedResult) {
	r.windows = append(r.windows, o.windows...)
	r.ops += o.ops
	r.seconds += o.seconds
	r.cpuNS += o.cpuNS
	r.waitNS += o.waitNS
	r.syscalls += o.syscalls
	r.ctxsw += o.ctxsw
	r.walBytes += o.walBytes
	r.batchRTT = append(r.batchRTT, o.batchRTT...)
}

// throughput is completed ops per second of phase.
func (r closedResult) throughput() float64 { return float64(r.ops) / r.seconds }

// per is a daemon-side count per completed op.
func (r closedResult) per(count int64) float64 { return float64(count) / float64(max(r.ops, 1)) }

// slowQuartile is the completion rate of the window a quarter of the
// way up from the slowest: a stall that recurs (a collection, a seal, a
// writer backlog) lowers it long before it moves the whole-phase rate.
func (r closedResult) slowQuartile() float64 {
	rates := make([]float64, 0, len(r.windows))
	for _, w := range r.windows {
		rates = append(rates, float64(w.ops)/w.seconds)
	}
	return percentile(sortedCopy(rates), 25)
}

// counters are the daemon's cumulative /proc figures at one moment.
type counters struct {
	cpuNS, waitNS, syscalls, ctxsw, dirBytes int64
}

func (s *session) readCounters() (c counters, err error) {
	pid := s.d.pid()
	if c.cpuNS, c.waitNS, err = procCPU(pid); err != nil {
		return c, err
	}
	if c.syscalls, err = procSyscalls(pid); err != nil {
		return c, err
	}
	if c.ctxsw, err = procCtxSwitches(pid); err != nil {
		return c, err
	}
	if s.dir != "" {
		c.dirBytes, err = dirBytes(s.dir)
	}
	return c, err
}

// cycler is implemented by workloads whose op stream repeats a
// template; their phases start on a template boundary.
type cycler interface{ cycle() int64 }

// phaseStart is the first op at or after next on which a phase of w
// may start.
func phaseStart(w workload, next int64) int64 {
	if c, ok := w.(cycler); ok {
		m := c.cycle()
		return (next + m - 1) / m * m
	}
	return next
}

// closedLoop runs w from op base for dur. A sends batches back-to-back
// but holds at most inflightCap ops whose result B has not seen.
func (s *session) closedLoop(w workload, base int64, dur time.Duration) (closedResult, int64, error) {
	base = phaseStart(w, base)
	n := w.batch()
	slots := max(inflightCap/n, 1)
	// tokens holds one slot per in-flight batch; work tells B how far A
	// has committed to sending. work can never hold more than the
	// in-flight batches, so slots+1 keeps A from blocking on it.
	tokens := make(chan struct{}, slots)
	work := make(chan int64, slots+1)
	s.stop = make(chan struct{})
	var completed atomic.Int64
	bDone := make(chan struct{})

	c0, err := s.readCounters()
	if err != nil {
		return closedResult{}, base, fmt.Errorf("closed loop: %w", err)
	}
	start := time.Now()
	deadline := start.Add(dur)
	stop := s.stop
	drain := time.AfterFunc(dur+drainCap, func() { close(stop) })
	defer drain.Stop()

	go func() { // B
		defer close(bDone)
		k := base
		for end := range work {
			for ; k < end; k++ {
				sp := s.tr.begin("deliver", k)
				if _, ok := w.await(s, k); ok {
					completed.Add(1)
				}
				s.tr.end(sp)
			}
			<-tokens
		}
	}()

	var res closedResult
	// The window sampler is bookkeeping, not load: four times a second
	// it reads one counter.
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		prevOps, prevT := int64(0), start
		for i := int64(1); ; i++ {
			edge := start.Add(time.Duration(i) * closedWindow)
			if edge.After(deadline) {
				return
			}
			time.Sleep(time.Until(edge))
			ops, now := completed.Load(), time.Now()
			res.windows = append(res.windows, window{ops - prevOps, now.Sub(prevT).Seconds()})
			prevOps, prevT = ops, now
		}
	}()
	k := base
send:
	for time.Now().Before(deadline) {
		select {
		case tokens <- struct{}{}:
		case <-stop:
			break send
		}
		work <- k + int64(n)
		s.sendSpan = s.tr.begin("client."+w.kind()+"_batch", k)
		t0 := time.Now()
		err := w.sendBatch(s, k, n)
		if s.tr != nil {
			res.batchRTT = append(res.batchRTT, float64(time.Since(t0))/1e3)
		}
		s.tr.end(s.sendSpan)
		if err != nil {
			s.fa.errored += int64(n)
		}
		k += int64(n)
	}
	// The phase ends here: what B has observed by now counts, the ops
	// still in flight drain below without being counted.
	<-sampled
	res.ops = completed.Load()
	res.seconds = time.Since(start).Seconds()
	c1, err := s.readCounters()
	close(work)
	<-bDone
	if s.stopped() {
		s.aborted = true
	}
	s.attempted += k - base
	if err != nil {
		return closedResult{}, k, fmt.Errorf("closed loop: %w", err)
	}
	res.cpuNS, res.waitNS = c1.cpuNS-c0.cpuNS, c1.waitNS-c0.waitNS
	res.syscalls, res.ctxsw = c1.syscalls-c0.syscalls, c1.ctxsw-c0.ctxsw
	res.walBytes = c1.dirBytes - c0.dirBytes
	return res, k, nil
}

// openResult is what one open-loop phase measured.
type openResult struct {
	// latencies are the µs from each op's due time to its result being
	// observed, in op order. A failed op has +Inf: it misses any limit,
	// so it sorts as the slowest sample, never the fastest.
	latencies []float64
	late      []float64 // µs A sent after the due time
	// p99s are the 99th percentiles of the phase's openWindows windows,
	// perWindow samples apiece.
	p99s      []float64
	perWindow int
	rtt       []float64 // µs, sendOne call to return; traced runs only
}

func (r *openResult) add(o openResult) {
	r.latencies = append(r.latencies, o.latencies...)
	r.late = append(r.late, o.late...)
	r.p99s = append(r.p99s, o.p99s...)
	r.perWindow = o.perWindow
	r.rtt = append(r.rtt, o.rtt...)
}

// openLoop runs w from op base for dur at w.openRate(): op i is due at
// start + i/rate whatever the daemon does, is sent as one round trip,
// and its latency runs from the due time, so a stall is charged to
// every op it delays.
func (s *session) openLoop(w workload, base int64, dur time.Duration) (openResult, int64) {
	base = phaseStart(w, base)
	rate := w.openRate()
	n := int64(dur.Seconds() * rate)
	res := openResult{latencies: make([]float64, n), late: make([]float64, n)}
	// work is sized for the whole phase so A never waits for B.
	work := make(chan int64, n)
	s.stop = make(chan struct{})
	stop := s.stop
	drain := time.AfterFunc(dur+drainCap, func() { close(stop) })
	defer drain.Stop()

	start := time.Now()
	interval := float64(time.Second) / rate
	due := func(i int64) time.Time { return start.Add(time.Duration(float64(i) * interval)) }
	bDone := make(chan struct{})
	go func() { // B
		defer close(bDone)
		for k := range work {
			i := k - base
			sp := s.tr.begin("deliver", k)
			t, ok := w.await(s, k)
			s.tr.end(sp)
			res.latencies[i] = float64(t.Sub(due(i))) / 1e3
			if !ok {
				res.latencies[i] = math.Inf(1)
			}
		}
	}()

	var i int64
	for ; i < n && !s.stopped(); i++ {
		k := base + i
		sleepUntil(due(i))
		t0 := time.Now()
		res.late[i] = float64(t0.Sub(due(i))) / 1e3
		work <- k
		s.sendSpan = s.tr.begin("client."+w.kind(), k)
		err := w.sendOne(s, k)
		s.tr.end(s.sendSpan)
		if s.tr != nil {
			res.rtt = append(res.rtt, float64(time.Since(t0))/1e3)
		}
		if err != nil {
			s.fa.errored++
		}
	}
	close(work)
	<-bDone
	if s.stopped() {
		s.aborted = true
	}
	res.latencies, res.late = res.latencies[:i], res.late[:i]
	res.p99s, res.perWindow = windowPercentiles(res.latencies, max(min(openWindows, int(i)/openWindowMin), 1), 99)
	s.attempted += i
	return res, base + i
}

// sleepUntil waits for t in a nanosleep system call. The Go runtime
// rounds an idle process's timers up to its netpoller's millisecond
// resolution, several op intervals long at the open-loop rates used
// here, and spinning instead would take a core from the daemon under
// test on a two-core machine. What overshoot remains is reported as
// generator lateness and is part of every latency, which runs from the
// due time.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// openSummary reduces open-loop phases to their reported numbers.
type openSummary struct {
	samples   int     // ops attempted
	observed  int     // ops whose result was observed
	windows   int     // windows behind p99w
	perWindow int     // samples per window
	p50       float64 // median over every op of the run's open-loop phases
	p99       float64 // median of the windows' 99th percentiles
	lateP99   float64 // 99th percentile of how late A sent
}

func summarizeOpen(r openResult) (openSummary, error) {
	sum := openSummary{samples: len(r.latencies), windows: len(r.p99s), perWindow: r.perWindow}
	if sum.samples == 0 {
		return sum, fmt.Errorf("open loop: no samples")
	}
	sorted := sortedCopy(r.latencies)
	for _, l := range sorted {
		if !math.IsInf(l, 1) {
			sum.observed++
		}
	}
	sum.p50 = percentile(sorted, 50)
	sum.p99 = median(r.p99s)
	sum.lateP99 = percentile(sortedCopy(r.late), 99)
	return sum, nil
}
