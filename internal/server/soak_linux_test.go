//go:build linux

package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/frame"
	"eventdb/internal/raceflag"
)

// TestIdleSubscriberSoak holds thousands of concurrent idle binary
// subscribers on one server, each with its own reader goroutine, and
// checks that a push still reaches them.
func TestIdleSubscriberSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	want := 10000
	if raceflag.Enabled {
		// The race detector multiplies per-goroutine cost.
		want = 2000
	}
	n := maxSoakConns(t, want)

	_, srv := startServer(t, core.Config{}, Config{})

	type subConn struct {
		nc net.Conn
		br *bufio.Reader
	}
	conns := make([]subConn, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	sem := make(chan struct{}, 64)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			nc, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				errs <- fmt.Errorf("conn %d dial: %w", i, err)
				return
			}
			br := bufio.NewReader(nc)
			if _, err := nc.Write([]byte("HELLO 2\n")); err != nil {
				errs <- fmt.Errorf("conn %d hello: %w", i, err)
				return
			}
			line, err := br.ReadString('\n')
			if err != nil || strings.TrimSpace(line) != "OK 2" {
				errs <- fmt.Errorf("conn %d hello reply %q err %v", i, line, err)
				return
			}
			if _, err := nc.Write(frame.AppendFrameString(nil, frame.Cmd, "SUB s")); err != nil {
				errs <- fmt.Errorf("conn %d sub: %w", i, err)
				return
			}
			fr := frame.NewReader(br)
			typ, payload, err := fr.Next()
			if err != nil || typ != frame.Reply || string(payload) != "OK" {
				errs <- fmt.Errorf("conn %d sub reply %s %q err %v", i, typ, payload, err)
				return
			}
			conns[i] = subConn{nc: nc, br: br}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			if c.nc != nil {
				c.nc.Close()
			}
		}
	}()

	// Idle is not dead: a push must still reach every subscriber.
	// Publishing wakes each connection's writer; spot-check a sample.
	pub := dial(t, srv)
	if _, err := pub.Publish(event.New("tick", map[string]any{"n": 1})); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, n / 2, n - 1} {
		c := conns[i]
		c.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
		fr := frame.NewReader(c.br)
		typ, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("conn %d never saw the push: %v", i, err)
		}
		if typ != frame.Evt {
			t.Fatalf("conn %d push type %s", i, typ)
		}
		if id, _, ok := frame.DecodeEvt(payload); !ok || id != "s" {
			t.Fatalf("conn %d push decode id=%q ok=%v", i, id, ok)
		}
	}
}

// maxSoakConns raises RLIMIT_NOFILE as far as allowed and derives how
// many test connections fit (each costs two descriptors: client and
// server end, plus headroom for everything else).
func maxSoakConns(t *testing.T, want int) int {
	t.Helper()
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatalf("getrlimit: %v", err)
	}
	if lim.Cur < lim.Max {
		raised := lim
		raised.Cur = lim.Max
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &raised); err == nil {
			lim = raised
		}
	}
	const reserve = 256
	fit := int(lim.Cur)
	if fit > reserve {
		fit = (fit - reserve) / 2
	} else {
		fit = 16
	}
	if fit < want {
		t.Logf("RLIMIT_NOFILE %d caps the soak at %d connections (wanted %d)", lim.Cur, fit, want)
		return fit
	}
	return want
}
