package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"eventdb/client"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its argument")
	}
}

func TestWindowPercentiles(t *testing.T) {
	// Ten windows of 100 samples valued 1..100; one window also holds a
	// stall. The whole-phase p99 would move; the windows' median p99
	// does not.
	var samples []float64
	for w := 0; w < 10; w++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if w == 3 && i > 40 {
				v = 1e6
			}
			samples = append(samples, v)
		}
	}
	p99s, per := windowPercentiles(samples, 10, 99)
	if per != 100 || len(p99s) != 10 || p99s[0] != 99 || p99s[3] != 1e6 {
		t.Fatalf("windowPercentiles p99 = %v (per %d)", p99s, per)
	}
	if got := median(p99s); got != 99 {
		t.Errorf("median of window p99s = %v, want 99", got)
	}
	if out, per := windowPercentiles(samples[:5], 10, 50); out != nil || per != 0 {
		t.Errorf("fewer samples than windows: got %v, %d", out, per)
	}
}

func TestClosedResult(t *testing.T) {
	var r closedResult
	for i := 1; i <= 8; i++ {
		// Window i completes 1000*i ops in a second.
		r.add(closedResult{windows: []window{{ops: int64(1000 * i), seconds: 1}}, ops: int64(1000 * i), seconds: 1, cpuNS: int64(1000*i) * 10_000})
	}
	if got := r.throughput(); got != 4500 {
		t.Errorf("throughput = %v, want 4500 (36000 ops in 8 s)", got)
	}
	if got := r.slowQuartile(); got != 2000 {
		t.Errorf("slowQuartile = %v, want 2000 (second slowest of eight windows)", got)
	}
	if got := r.per(r.cpuNS); got != 10_000 {
		t.Errorf("CPU per op = %v ns, want 10000", got)
	}
}

func TestFailedOpIsTheSlowestSample(t *testing.T) {
	r := openResult{latencies: []float64{100, math.Inf(1), 300, 200}, late: []float64{1, 2, 3, 4}}
	sum, err := summarizeOpen(r)
	if err != nil {
		t.Fatal(err)
	}
	if sum.samples != 4 || sum.observed != 3 {
		t.Errorf("samples %d observed %d, want 4 and 3", sum.samples, sum.observed)
	}
	if sum.p50 != 200 {
		t.Errorf("p50 = %v, want 200: a failed op must sort last, not first", sum.p50)
	}
	if p99s, _ := windowPercentiles(r.latencies, 1, 99); len(p99s) != 1 || !math.IsInf(p99s[0], 1) {
		t.Errorf("window p99 = %v, want +Inf", p99s)
	}
}

func TestCrashKeptRatio(t *testing.T) {
	for _, tc := range []struct {
		r    crashResult
		want float64
	}{
		{crashResult{published: 1100, recovered: 1100}, 1},
		{crashResult{published: 1100, recovered: 850}, 0.75},
		{crashResult{published: 4000, recovered: 0}, 0}, // more lost than the ratio's denominator
	} {
		if got := tc.r.keptRatio(); got != tc.want {
			t.Errorf("keptRatio(%+v) = %v, want %v", tc.r, got, tc.want)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := []byte("1234 (event db) d) S 1 1234 1234 0 -1 4194304 107 0 0 0 250 50 0 0 20 0 9 0 1622991 2703360 312 18446744073709551615\n")
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(300 * 10000); got != want {
		t.Errorf("parseStatCPU = %d us, want %d", got, want)
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("parseStatCPU accepted garbage")
	}
	if _, err := parseStatCPU([]byte("1 (x) S 1 2")); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
}

func TestParseSchedstat(t *testing.T) {
	run, wait, err := parseSchedstat([]byte("275061 70499 12\n"))
	if err != nil || run != 275061 || wait != 70499 {
		t.Errorf("parseSchedstat = %d, %d, %v", run, wait, err)
	}
	if _, _, err := parseSchedstat([]byte("17\n")); err == nil {
		t.Error("parseSchedstat accepted a truncated line")
	}
	if _, _, err := parseSchedstat([]byte("x y z\n")); err == nil {
		t.Error("parseSchedstat accepted garbage")
	}
}

func TestParseKeyed(t *testing.T) {
	status := []byte("Name:\teventdbd\nVmPeak:\t  20000 kB\nVmHWM:\t    1668 kB\nvoluntary_ctxt_switches:\t42\n")
	if got, err := parseKeyed(status, "VmHWM"); err != nil || got != 1668 {
		t.Errorf("VmHWM = %d, %v; want 1668", got, err)
	}
	if got, err := parseKeyed(status, "voluntary_ctxt_switches"); err != nil || got != 42 {
		t.Errorf("voluntary_ctxt_switches = %d, %v; want 42", got, err)
	}
	io := []byte("rchar: 3980\nwchar: 0\nsyscr: 9\nsyscw: 4\n")
	if got, err := parseKeyed(io, "syscr"); err != nil || got != 9 {
		t.Errorf("syscr = %d, %v; want 9", got, err)
	}
	if _, err := parseKeyed(io, "missing"); err == nil {
		t.Error("a missing key must be an error")
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	pid := os.Getpid()
	if run, _, err := procCPU(pid); err != nil || run <= 0 {
		t.Errorf("procCPU = %d, %v", run, err)
	}
	if mb, err := procHWMMB(pid); err != nil || mb <= 0 {
		t.Errorf("procHWMMB = %v, %v", mb, err)
	}
	if _, err := procSyscalls(pid); err != nil {
		t.Errorf("procSyscalls: %v", err)
	}
	if n, err := procCtxSwitches(pid); err != nil || n < 0 {
		t.Errorf("procCtxSwitches = %v, %v", n, err)
	}
}

// feed runs a subCheck over a delivery stream, awaiting ops 0..n-1.
func feed(n int64, deliveries []int64) failures {
	var f failures
	c := newSubCheck()
	i := 0
	recv := func() (int64, bool) {
		if i == len(deliveries) {
			return 0, false // drain deadline
		}
		i++
		return deliveries[i-1], true
	}
	for k := int64(0); k < n; k++ {
		c.await(k, recv, &f)
	}
	return f
}

func TestSubCheckCatchesAnomalies(t *testing.T) {
	for _, tc := range []struct {
		name       string
		deliveries []int64
		want       failures
	}{
		{"clean", []int64{0, 1, 2, 3, 4}, failures{}},
		{"dropped", []int64{0, 1, 3, 4}, failures{missing: 1}},
		{"dropped last", []int64{0, 1, 2, 3}, failures{missing: 1}},
		{"duplicated", []int64{0, 1, 1, 2, 3, 4}, failures{duplicate: 1}},
		{"reordered", []int64{0, 2, 1, 3, 4}, failures{reordered: 1}},
		{"dropped and duplicated", []int64{0, 0, 2, 3, 4}, failures{missing: 1, duplicate: 1}},
	} {
		if got := feed(5, tc.deliveries); got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got.String(), tc.want.String())
		}
	}
}

func TestDBMixCheckersCatchWrongResults(t *testing.T) {
	w := newDBMix(1, dbmixSmoke)
	good := func() *client.Result {
		res := &client.Result{Columns: []string{"sym", "total", "n"}}
		for sym, g := range w.aggWant {
			res.Rows = append(res.Rows, []any{sym, g[0], g[1]})
		}
		return res
	}
	var f failures
	if !w.checkAgg(good(), &f) || f.total() != 0 {
		t.Fatalf("a correct aggregate was refused: %s", f.String())
	}
	bad := good()
	bad.Rows[0][1] = bad.Rows[0][1].(int64) + 1
	if w.checkAgg(bad, &f) || f.wrong != 1 {
		t.Errorf("a wrong sum was accepted (%s)", f.String())
	}
	short := good()
	short.Rows = short.Rows[1:]
	if w.checkAgg(short, &f) || f.wrong != 2 {
		t.Errorf("a missing group was accepted (%s)", f.String())
	}

	const k = 0
	lo := w.scanLo(k)
	scan := func() *client.Result {
		res := &client.Result{Columns: []string{"seq", "ts", "sym", "qty", "px"}}
		for seq := lo; seq < lo+int64(w.sizes.scanSpan); seq++ {
			if w.qty[seq] >= dbScanMinQty {
				res.Rows = append(res.Rows, []any{seq, dbTime(seq), dbSymName(w.sym[seq]), int64(w.qty[seq]), int64(w.px[seq])})
			}
		}
		return res
	}
	f = failures{}
	if !w.checkScan(k, scan(), &f) || f.total() != 0 {
		t.Fatalf("a correct scan was refused: %s", f.String())
	}
	dup := scan()
	dup.Rows[1] = dup.Rows[0]
	if w.checkScan(k, dup, &f) || f.wrong != 1 {
		t.Errorf("a duplicated row was accepted (%s)", f.String())
	}
	off := scan()
	off.Rows[0][4] = off.Rows[0][4].(int64) + 1
	if w.checkScan(k, off, &f) || f.wrong != 2 {
		t.Errorf("a wrong column was accepted (%s)", f.String())
	}
}

func TestSelectiveReferenceMatchesOneToThree(t *testing.T) {
	w := newSelective(1, selectiveSmoke)
	fills := 0
	for i, sl := range w.slots {
		if n := len(sl.expect); n < 1 || n > 3 {
			t.Fatalf("slot %d matches %d filters, want 1..3", i, n)
		}
		if sl.role == roleFill {
			fills++
			if w.slots[i-pairGap].role != roleOrder || w.slots[i-pairGap].desk != sl.desk {
				t.Fatalf("fill slot %d has no matching order", i)
			}
		}
	}
	if fills == 0 {
		t.Fatal("the template plants no order/fill pair")
	}
}

func TestInputHashDependsOnSeedAlone(t *testing.T) {
	smoke = true
	defer func() { smoke = false }()
	digest := func(name string, seed uint64) string {
		ih := newInputHash()
		newWorkload(name, seed).hashInputs(ih)
		return ih.sum()
	}
	for _, name := range workloadNames {
		a, b, c := digest(name, 7), digest(name, 7), digest(name, 8)
		if a != b {
			t.Errorf("%s: the same seed gave two digests", name)
		}
		if a == c {
			t.Errorf("%s: different seeds gave the same digest", name)
		}
	}
}

// TestSmokeEndToEnd spawns a real eventdbd and drives every workload
// through the measured and the traced run at smoke size. It is what
// keeps the benchmark from rotting: nothing else in the repository
// compiles or runs it.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns eventdbd; skipped with -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "eventdbd")
	build := exec.Command("go", "build", "-o", bin, "eventdb/cmd/eventdbd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build eventdbd: %v\n%s", err, out)
	}
	smoke = true
	defer func() { smoke = false }()
	o := options{seed: 3, daemon: bin, out: filepath.Join(dir, "out")}
	for _, name := range workloadNames {
		res, err := runMeasured(o, name, dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", name, res.Correct, res.Failed, res.Attempted)
		}
		for _, m := range []string{"setup_s", "throughput_ops_s", "throughput_p25_ops_s", "deliver_p50_us", "server_cpu_us_per_op", "server_rss_mb", "crash_kept_ratio"} {
			if v, ok := res.Metrics[m]; !ok || !(v.Value > 0) {
				t.Errorf("%s: metric %s = %+v, want > 0", name, m, v)
			}
		}

		res, err = runTraced(o, name, dir)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !res.Correct || len(res.Metrics) != len(perLayerUnits) {
			t.Errorf("%s traced: correct=%v, %d metrics, want %d", name, res.Correct, len(res.Metrics), len(perLayerUnits))
		}
		if _, err := os.Stat(filepath.Join(o.out, "trace-"+name+".json")); err != nil {
			t.Errorf("%s traced: %v", name, err)
		}
		if name != "durable" && res.Metrics["wal.bytes_per_msg"].Value != 0 {
			t.Errorf("%s: wal.bytes_per_msg = %v outside durable", name, res.Metrics["wal.bytes_per_msg"].Value)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "outer", Parent: -1, Start: 0, End: 100},
		{Name: "inner", Parent: 0, Start: 10, End: 40},
		{Name: "inner", Parent: 0, Start: 50, End: 70},
	}
	self := selfTimes(spans)
	if self["outer"] != 50 || self["inner"] != 50 {
		t.Errorf("selfTimes = %v, want outer 50 inner 50", self)
	}
}
