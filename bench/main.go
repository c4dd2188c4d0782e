// Command bench is E23, the end-to-end benchmark of a real eventdbd.
//
// One process generates load: it spawns the eventdbd binary it is given
// on 127.0.0.1:0 with the daemon's default flags, drives it over
// loopback through the public client package on exactly two
// connections (A, the actor, and B, the receiver), grades every result
// against a reference it computes itself, and prints every metric by
// name and unit. See README.md for the workloads, the metrics and how
// to read them; run.sh builds both binaries and is the one command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"eventdb/client"
)

// openRates are the open-loop phases' fixed rates in ops/s: about a
// third of what connection A sustained with one-command round trips on
// the commit that introduced the benchmark (README.md says how they
// were measured, and why a third and not a half). They are constants so
// that every later commit is offered exactly the same load.
var openRates = map[string]float64{
	"fanout":    2000,
	"selective": 2500,
	"durable":   2000,
	"dbmix":     40,
}

var workloadNames = []string{"fanout", "selective", "durable", "dbmix"}

// smoke shrinks registration counts and preloads for the test suite's
// end-to-end run; it never changes what is measured or how.
var smoke bool

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	daemon   string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a workload's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: fanout, selective, durable or dbmix (default: all four in turn)")
	flag.Uint64Var(&o.seed, "seed", 1, "the only source of randomness: the same seed generates the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload (closed-loop phases 40%, open-loop phases 60%)")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced variant: per-layer metrics and span files instead of end-to-end metrics")
	flag.BoolVar(&smoke, "smoke", false, "tiny registration counts and short phases, for the test suite")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory the traced run writes trace-<workload>.json into")
	flag.StringVar(&o.daemon, "daemon", filepath.Join(".bench_build", "eventdbd"), "path of the eventdbd binary to spawn (run.sh builds it)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		fatalf("-trace wants 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	names := workloadNames
	if o.workload != "" {
		if !slices.Contains(workloadNames, o.workload) {
			fatalf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
		}
		names = []string{o.workload}
	}
	if _, err := os.Stat(o.daemon); err != nil {
		fatalf("eventdbd binary: %v (bench/run.sh builds it)", err)
	}
	reapOnSignal()
	scratch, err := os.MkdirTemp(filepath.Dir(o.daemon), "e23-")
	if err != nil {
		fatalf("scratch directory: %v", err)
	}

	printEnv(o)
	allCorrect := true
	for _, name := range names {
		var res result
		var err error
		if o.trace == 1 {
			res, err = runTraced(o, name, scratch)
		} else {
			res, err = runMeasured(o, name, scratch)
		}
		if err != nil {
			fatalf("%s: %v (daemon log kept in %s)", name, err, scratch)
		}
		for m, v := range res.Metrics {
			// Only a failed op's +Inf latency can get here (see openResult).
			if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
				fatalf("%s: %s is %v: too many ops failed for it to exist (%d of %d)", name, m, v.Value, res.Failed, res.Attempted)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("%s: result line: %v", name, err)
		}
		fmt.Println(string(line))
		allCorrect = allCorrect && res.Correct
	}
	os.RemoveAll(scratch)
	if !allCorrect {
		fmt.Fprintln(os.Stderr, "bench: a checker failed")
		exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	exit(2)
}

func newWorkload(name string, seed uint64) workload {
	switch name {
	case "fanout":
		return newFanout(seed)
	case "selective":
		if smoke {
			return newSelective(seed, selectiveSmoke)
		}
		return newSelective(seed, selectiveFull)
	case "durable":
		return newDurable(seed)
	default:
		if smoke {
			return newDBMix(seed, dbmixSmoke)
		}
		return newDBMix(seed, dbmixFull)
	}
}

// phases are the lengths of one session's phases, all fixed by
// -seconds and -smoke: the same on every commit.
type phases struct {
	warm, closed, open time.Duration
}

func phaseLengths(o options) phases {
	sec := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	p := phases{warm: time.Second, closed: sec(0.4 * o.seconds / sessions), open: sec(0.6 * o.seconds / sessions)}
	if smoke {
		p = phases{warm: 300 * time.Millisecond, closed: 700 * time.Millisecond, open: time.Second}
	}
	return p
}

// startSession spawns a daemon for w, connects A and B, registers and
// preloads, and warms up: the whole of what setup_s times. It returns
// the next unused op id.
func startSession(o options, w workload, scratch string, warm time.Duration) (*session, int64, error) {
	s := &session{stop: make(chan struct{})}
	var extra []string
	if w.durable() {
		dir, err := os.MkdirTemp(scratch, "data-")
		if err != nil {
			return nil, 0, err
		}
		s.dir = dir
		extra = []string{"-dir", dir}
	}
	d, err := spawnDaemon(o.daemon, filepath.Join(scratch, "eventdbd.log"), extra...)
	if err != nil {
		return nil, 0, err
	}
	s.d = d
	if s.a, err = client.Dial(d.addr, w.dialOpts()...); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("dial A: %w", err)
	}
	if s.b, err = client.Dial(d.addr, w.dialOpts()...); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("dial B: %w", err)
	}
	if err := w.setup(s); err != nil {
		s.close()
		return nil, 0, err
	}
	_, next, err := s.closedLoop(w, 0, warm)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	return s, next, nil
}

// runMeasured is the untraced run: the end-to-end metrics.
//
// The measured seconds are split over the run's sessions, each a fresh
// daemon taken through set-up, warm-up, a closed-loop and an open-loop
// phase. setup_s and server_rss_mb are medians over the sessions; the
// closed-loop counts and the open-loop samples of all sessions are
// pooled.
func runMeasured(o options, name string, scratch string) (result, error) {
	ph := phaseLengths(o)
	var (
		setups, rss       []float64
		perSession        []float64 // each session's closed-loop throughput
		closed            closedResult
		open              openResult
		attempted, failed int64
		kept              = 1.0
	)
	// One workload serves every session: its inputs and references are
	// generated once, and setup starts each session's state afresh.
	w := newWorkload(name, o.seed)
	ih := newInputHash()
	w.hashInputs(ih)
	fmt.Printf("== %s seed=%d input_sha256=%s\n", name, o.seed, ih.sum())
	fmt.Printf("   %d sessions, each: set-up, warm-up %v, closed loop %v (<= %d ops in flight), open loop %v at %.0f ops/s, drain <= %v\n",
		sessions, ph.warm, ph.closed, inflightCap, ph.open, w.openRate(), drainCap)
	for i := 0; i < sessions; i++ {
		t0 := time.Now()
		s, next, err := startSession(o, w, scratch, ph.warm)
		if err != nil {
			return result{}, fmt.Errorf("session %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		err = func() error {
			defer s.close()
			var c closedResult
			var op openResult
			var err error
			if !s.aborted {
				c, next, err = s.closedLoop(w, next, ph.closed)
			}
			if err != nil {
				return err
			}
			if !s.aborted {
				op, next = s.openLoop(w, next, ph.open)
			}
			closed.add(c)
			open.add(op)
			perSession = append(perSession, c.throughput())
			w.finish(s)
			mb, err := procHWMMB(s.d.pid())
			if err != nil {
				return err
			}
			rss = append(rss, mb)
			// The crash check kills the daemon, so it runs once, last.
			if dw, ok := w.(*durable); ok && !s.aborted && i == sessions-1 {
				cr, err := dw.crashCheck(s, o.daemon, filepath.Join(scratch, "eventdbd.log"), next)
				if err != nil {
					return err
				}
				printCrash(cr)
				kept = cr.keptRatio()
			}
			attempted += s.attempted
			failed += s.failed()
			fmt.Printf("   session %d failures: A %s; B %s\n", i+1, s.fa.String(), s.fb.String())
			if s.aborted {
				// The numbers would describe a broken run, so none are
				// reported as if they were good.
				return fmt.Errorf("a phase did not drain within %v (failed %d of %d ops)", drainCap, failed, attempted)
			}
			return nil
		}()
		if err != nil {
			return result{}, fmt.Errorf("session %d: %w", i+1, err)
		}
	}

	sum, err := summarizeOpen(open)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["throughput_ops_s"] = metric{closed.throughput(), "ops/s"}
	res.Metrics["throughput_p25_ops_s"] = metric{closed.slowQuartile(), "ops/s"}
	res.Metrics["deliver_p50_us"] = metric{sum.p50, "us"}
	res.Metrics["server_cpu_us_per_op"] = metric{closed.per(closed.cpuNS) / 1e3, "us/op"}
	res.Metrics["server_rss_mb"] = metric{median(rss), "MB"}
	res.Metrics["crash_kept_ratio"] = metric{kept, "ratio"}

	fmt.Printf("   setup_s               %10.3f s      median of %d set-ups %v (spawn -> end of warm-up)\n", median(setups), len(setups), fmtFloats(setups))
	fmt.Printf("   throughput_ops_s      %10.1f ops/s  closed loop: %d ops whose whole result was observed in %.2f s; by session %v\n",
		closed.throughput(), closed.ops, closed.seconds, fmtFloats(perSession))
	fmt.Printf("   throughput_p25_ops_s  %10.1f ops/s  closed loop: the rate of the window a quarter of the way up from the slowest of %d windows of %v\n",
		closed.slowQuartile(), len(closed.windows), closedWindow)
	fmt.Printf("   deliver_p50_us        %10.1f us     open loop, due time -> result observed: median of %d samples (%d observed)\n",
		sum.p50, sum.samples, sum.observed)
	fmt.Printf("   failed_ratio          %10.6f ratio  %d failed of %d attempted (warm-ups, both phases and checks)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	fmt.Printf("   server_cpu_us_per_op  %10.2f us/op  closed loop: %.2f s of daemon CPU over %d ops\n",
		closed.per(closed.cpuNS)/1e3, float64(closed.cpuNS)/1e9, closed.ops)
	fmt.Printf("   server_rss_mb         %10.1f MB     VmHWM at the end of each session, median of %v\n", median(rss), fmtFloats(rss))
	fmt.Printf("   crash_kept_ratio      %10.3f ratio  share of the last %d acknowledged publishes a SIGKILL and restart gave back (1 without -dir: nothing is promised, nothing is killed)\n", kept, crashCheckEvents)
	fmt.Printf("   gen.late_p99_us       %10.1f us     (per-layer) how late A sent open-loop ops: validity of the run, not of the system\n", sum.lateP99)
	fmt.Printf("   deliver.p99_us        %10.1f us     (per-layer) open loop, median of %d window p99s, %d samples per window\n", sum.p99, sum.windows, sum.perWindow)
	return res, nil
}

func printCrash(cr crashResult) {
	fmt.Printf("   crash check: %d events published one round trip at a time and acknowledged, none consumed; a WAL flush was seen from outside every %d acknowledgements\n", cr.published, cr.window)
	fmt.Printf("   crash check: eventdbd SIGKILLed with %d acknowledgements since the last flush seen, restarted on the same -dir\n", cr.exposed)
	fmt.Printf("   crash check: recovered %d as an intact, duplicate-free prefix (graded); %d acknowledged events past it were lost (crash_kept_ratio counts them against the last %d)\n", cr.recovered, cr.lost(), crashCheckEvents)
	fmt.Println("   crash check: this is a process kill, the OS page cache survives: not a power-loss test")
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// printEnv emits the environment block: what a reader needs to judge
// whether two sets of numbers are comparable.
func printEnv(o options) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	kernel := "unknown"
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(data))
	}
	// Only a checkout that is itself a git work tree is asked: git would
	// otherwise walk up and report some enclosing repository's commit.
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	env := map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu_model":    cpu,
		"go_version":   runtime.Version(),
		"kernel":       kernel,
		"git_commit":   commit,
		"daemon_flags": "-addr 127.0.0.1:0 (all other flags at their defaults; durable adds -dir <scratch>)",
		"flush_policy": flushPolicy,
		"transport":    "loopback TCP, two client connections from one generator process",
		"seed":         o.seed,
		"smoke":        smoke,
	}
	data, _ := json.Marshal(env)
	fmt.Printf("env %s\n", data)
}
