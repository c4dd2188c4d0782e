package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one spawned eventdbd process. Its stdout carries only the
// "listening on" banner; its stderr (the log) goes to a file under the
// run's scratch directory so a failed run can be diagnosed.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	args []string
	log  *os.File
}

// live holds every daemon that is started and not yet waited for, so
// that reapOnSignal can end them.
var live struct {
	sync.Mutex
	m map[*daemon]struct{}
}

// exit kills and waits for every live daemon, then exits with code: the
// way out of the benchmark on every path that is not main's return.
func exit(code int) {
	live.Lock() // held to the end: no daemon starts from here on
	for d := range live.m {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
	os.Exit(code)
}

// reapOnSignal makes SIGINT, SIGTERM and SIGHUP end the benchmark through
// exit, with the shell's code for the signal. (SIGKILL cannot be caught:
// Pdeathsig covers it.)
func reapOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-ch
		exit(128 + int(sig.(syscall.Signal)))
	}()
}

// spawnDaemon starts bin on an ephemeral loopback port with the given
// extra flags and waits for it to announce its address.
func spawnDaemon(bin, logPath string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logf
	// Should the benchmark itself be killed, the kernel kills the daemon:
	// no run leaves a process behind, whichever way it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, args: args, log: logf}
	live.Lock()
	err = cmd.Start()
	if err == nil {
		if live.m == nil {
			live.m = map[*daemon]struct{}{}
		}
		live.m[d] = struct{}{}
	}
	live.Unlock()
	if err != nil {
		logf.Close()
		return nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	banner := make(chan string, 1)
	go func() {
		// The daemon prints one banner line and nothing else on stdout;
		// the goroutine ends at EOF when the process exits.
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		banner <- line
		for {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
		}
	}()
	select {
	case line := <-banner:
		// "eventdbd listening on 127.0.0.1:41523 (dir=...".
		f := strings.Fields(line)
		if len(f) < 4 || f[1] != "listening" {
			d.kill()
			return nil, fmt.Errorf("spawn %s: unexpected banner %q (see %s)", bin, line, logPath)
		}
		d.addr = f[3]
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("spawn %s: no banner within 20s (see %s)", bin, logPath)
	}
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill ends the daemon with SIGKILL and waits for it: the process-kill
// crash of the durable check, and the teardown of every other run (the
// measured state is gone with the process, so a graceful drain buys
// nothing).
func (d *daemon) kill() {
	live.Lock()
	d.cmd.Process.Kill()
	d.cmd.Wait()
	delete(live.m, d)
	live.Unlock()
	d.log.Close()
}

// adminLine sends one text command on a short-lived connection of its
// own and returns the reply line without its "OK " prefix. It exists
// for COMPACT, the one verb the benchmark needs that the client
// package does not expose; no load ever travels on it.
func adminLine(addr, cmd string) (string, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return "", err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(60 * time.Second))
	if _, err := fmt.Fprintf(nc, "%s\n", cmd); err != nil {
		return "", err
	}
	line, err := bufio.NewReaderSize(nc, 1<<16).ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimRight(line, "\r\n")
	rest, ok := strings.CutPrefix(line, "OK")
	if !ok {
		return "", fmt.Errorf("%s: %s", cmd, line)
	}
	return strings.TrimPrefix(rest, " "), nil
}
