package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The outside counters: everything here reads /proc/<pid> of the
// spawned eventdbd, so the daemon is measured without being changed.

// userHZ is the unit of utime/stime in /proc/<pid>/stat. It is the
// kernel's USER_HZ, which is 100 on every Linux ABI Go supports.
const userHZ = 100

// parseStatCPU extracts utime+stime (fields 14 and 15) from the
// contents of /proc/<pid>/stat, in microseconds. The command name
// (field 2) may contain spaces and parentheses, so fields are counted
// from the last ')'.
func parseStatCPU(stat []byte) (int64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want >= 13", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return (ut + st) * (1_000_000 / userHZ), nil
}

// parseKeyed returns the integer after "key:" in a /proc file made of
// "key: value [unit]" lines (status, io).
func parseKeyed(data []byte, key string) (int64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc %s: %w", key, err)
		}
		return n, nil
	}
	return 0, fmt.Errorf("proc: no %q line", key)
}

// parseSchedstat extracts the first two fields of a task's schedstat:
// nanoseconds spent on a CPU, and nanoseconds spent runnable but
// waiting for one.
func parseSchedstat(data []byte) (runNS, waitNS int64, err error) {
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, 0, fmt.Errorf("proc schedstat: %d fields, want >= 2", len(f))
	}
	if runNS, err = strconv.ParseInt(f[0], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc schedstat: run time: %w", err)
	}
	if waitNS, err = strconv.ParseInt(f[1], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc schedstat: wait time: %w", err)
	}
	return runNS, waitNS, nil
}

// procCPU reads the process's consumed CPU time, and the time its
// threads spent runnable without a CPU, in nanoseconds. Both come from
// the per-thread schedstat files, which count the same CPU time as
// utime+stime but to the nanosecond instead of the 10 ms tick; where a
// kernel does not provide them, utime+stime stands in and the wait is 0.
// The sums cover live threads only, and the Go runtime all but never
// lets a thread exit.
func procCPU(pid int) (runNS, waitNS int64, err error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	seen := false
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // thread exited between glob and read
		}
		r, w, err := parseSchedstat(data)
		if err != nil {
			return 0, 0, err
		}
		runNS, waitNS, seen = runNS+r, waitNS+w, true
	}
	if seen {
		return runNS, waitNS, nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	us, err := parseStatCPU(data)
	return us * 1000, 0, err
}

// procHWMMB reads the process's peak resident set size in MB.
func procHWMMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseKeyed(data, "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// procSyscalls reads the process's read+write syscall count.
func procSyscalls(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	r, err := parseKeyed(data, "syscr")
	if err != nil {
		return 0, err
	}
	w, err := parseKeyed(data, "syscw")
	if err != nil {
		return 0, err
	}
	return r + w, nil
}

// procCtxSwitches sums voluntary context switches over the process's
// live threads (/proc/<pid>/status alone covers only the main thread).
func procCtxSwitches(pid int) (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("proc: no tasks for pid %d", pid)
	}
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // thread exited between glob and read
		}
		n, err := parseKeyed(data, "voluntary_ctxt_switches")
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// dirBytes sums the sizes of the regular files directly inside dir:
// the daemon's WAL segments, seen from outside.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		// A file removed between the listing and the stat no longer counts.
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
