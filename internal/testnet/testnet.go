// Package testnet provides fault-injection wrappers around net.Conn
// and net.Listener for deterministic failure testing of wire
// protocols: scriptable latency, fragmented (partial) writes, byte
// corruption, and connection kills triggered by protocol content —
// most usefully "kill when a line's LSN reaches N", which lets a
// replication test chop a WAL stream at an exact record boundary.
//
// The wrappers are test helpers, not production middleware: they
// favour scriptability over throughput (line scanning copies bytes)
// and are safe for the two-goroutine (one reader, one writer) usage
// pattern of a wrapped connection.
//
// Typical use:
//
//	fc := testnet.Wrap(rawConn)
//	fc.SetWriteChunk(3)            // fragment writes into 3-byte frames
//	fc.KillAtLSN("REPL", 42)       // die when record 42 crosses the wire
//	... drive the protocol over fc ...
package testnet

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"time"
)

// ErrKilled is returned by Read and Write after the connection has
// been killed by a fault script (Kill, KillAtLSN, or a line
// predicate).
var ErrKilled = errors.New("testnet: connection killed by fault script")

// Conn wraps a net.Conn with scriptable faults. All knobs may be
// flipped concurrently with traffic; changes apply to subsequent
// reads and writes.
type Conn struct {
	inner net.Conn

	mu         sync.Mutex
	readDelay  time.Duration
	writeDelay time.Duration
	writeChunk int            // max bytes per underlying write; 0 = unlimited
	corruptW   map[int64]byte // write-stream offset → XOR mask
	writeOff   int64          // bytes accepted for writing so far
	readKill   func(line []byte) bool
	writeKill  func(line []byte) bool
	writeSeen  func(p []byte)
	readBuf    []byte // scanned complete-line bytes ready for delivery
	partial    []byte // read-side partial-line accumulator
	wLineBuf   []byte // write-side partial-line accumulator
	killed     bool
}

// Wrap returns a fault-injecting view of c with no faults scripted:
// until a knob is set it behaves as a transparent proxy.
func Wrap(c net.Conn) *Conn { return &Conn{inner: c} }

// SetReadLatency delays every Read by d.
func (c *Conn) SetReadLatency(d time.Duration) {
	c.mu.Lock()
	c.readDelay = d
	c.mu.Unlock()
}

// SetWriteLatency delays every Write by d.
func (c *Conn) SetWriteLatency(d time.Duration) {
	c.mu.Lock()
	c.writeDelay = d
	c.mu.Unlock()
}

// SetWriteChunk fragments each Write into underlying writes of at
// most n bytes, exposing peers that assume one send arrives as one
// read. All bytes are still written (the io.Writer contract); only
// the framing is shredded. n <= 0 disables fragmentation.
func (c *Conn) SetWriteChunk(n int) {
	c.mu.Lock()
	c.writeChunk = n
	c.mu.Unlock()
}

// CorruptWrite XORs the byte at absolute write-stream offset off
// (counting every byte this Conn has accepted for writing) with mask.
// The corruption applies to a copy; the caller's buffer is untouched.
func (c *Conn) CorruptWrite(off int64, mask byte) {
	c.mu.Lock()
	if c.corruptW == nil {
		c.corruptW = make(map[int64]byte)
	}
	c.corruptW[off] = mask
	c.mu.Unlock()
}

// KillOnRead kills the connection when a complete inbound line (up to
// and including '\n') satisfies pred. The matched line and everything
// after it are never delivered to the reader.
func (c *Conn) KillOnRead(pred func(line []byte) bool) {
	c.mu.Lock()
	c.readKill = pred
	c.mu.Unlock()
}

// KillOnWrite kills the connection when a complete outbound line
// satisfies pred. Bytes before the matched line's start are written;
// the matched line is not.
func (c *Conn) KillOnWrite(pred func(line []byte) bool) {
	c.mu.Lock()
	c.writeKill = pred
	c.mu.Unlock()
}

// KillAtLSN scripts a kill in both directions for lines of the form
// "<verb> <n> ..." once n reaches lsn — e.g. KillAtLSN("REPL", 42)
// severs a replication stream exactly before record 42 crosses.
func (c *Conn) KillAtLSN(verb string, lsn uint64) {
	pred := lineLSNAtLeast(verb, lsn)
	c.mu.Lock()
	c.readKill, c.writeKill = pred, pred
	c.mu.Unlock()
}

// lineLSNAtLeast matches "<verb> <n>..." lines with n >= lsn.
func lineLSNAtLeast(verb string, lsn uint64) func([]byte) bool {
	prefix := []byte(verb + " ")
	return func(line []byte) bool {
		if !bytes.HasPrefix(line, prefix) {
			return false
		}
		rest := line[len(prefix):]
		var n uint64
		i := 0
		for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
			n = n*10 + uint64(rest[i]-'0')
			i++
		}
		if i == 0 {
			return false
		}
		return n >= lsn
	}
}

// OnWrite has fn observe the bytes of every Write call, one call per
// Write and before any fault applies — what a test needs to count how
// many messages the peer put in one write. fn must not retain p.
func (c *Conn) OnWrite(fn func(p []byte)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writeSeen = fn
}

// Kill severs the connection now: the underlying conn is closed and
// subsequent Reads/Writes return ErrKilled. Idempotent.
func (c *Conn) Kill() {
	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return
	}
	c.killed = true
	c.mu.Unlock()
	c.inner.Close()
}

// Killed reports whether a fault script has severed the connection.
func (c *Conn) Killed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed
}

// Read applies read latency, then delivers inbound bytes. With a
// KillOnRead predicate installed, bytes are released line by line so
// the matched line is withheld; without one, reads pass through.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	d := c.readDelay
	c.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	for {
		c.mu.Lock()
		if len(c.readBuf) > 0 {
			n := copy(p, c.readBuf)
			c.readBuf = c.readBuf[n:]
			c.mu.Unlock()
			return n, nil
		}
		killed, pred := c.killed, c.readKill
		c.mu.Unlock()
		if killed {
			return 0, ErrKilled
		}
		if pred == nil {
			return c.inner.Read(p)
		}
		buf := make([]byte, 32<<10)
		n, err := c.inner.Read(buf)
		if n > 0 {
			c.scanRead(buf[:n])
		}
		if err != nil {
			c.mu.Lock()
			buffered, killed := len(c.readBuf) > 0, c.killed
			c.mu.Unlock()
			if buffered {
				continue
			}
			if killed {
				return 0, ErrKilled
			}
			return 0, err
		}
	}
}

// scanRead assembles inbound bytes into lines, releasing each line
// that survives the kill predicate and severing the connection at the
// first that does not.
func (c *Conn) scanRead(b []byte) {
	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return
	}
	c.partial = append(c.partial, b...)
	for {
		i := bytes.IndexByte(c.partial, '\n')
		if i < 0 {
			c.mu.Unlock()
			return
		}
		line := c.partial[:i+1]
		if c.readKill != nil && c.readKill(line) {
			c.killed = true
			c.partial = nil
			c.mu.Unlock()
			c.inner.Close()
			return
		}
		c.readBuf = append(c.readBuf, line...)
		c.partial = append(c.partial[:0], c.partial[i+1:]...)
	}
}

// Write applies write latency, the kill predicate, corruption and
// fragmentation, in that order. On a kill it writes the bytes
// preceding the matched line, severs the connection, and returns
// ErrKilled.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	delay, chunk, pred, killed, seen := c.writeDelay, c.writeChunk, c.writeKill, c.killed, c.writeSeen
	c.mu.Unlock()
	if killed {
		return 0, ErrKilled
	}
	if seen != nil {
		seen(p)
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if pred != nil {
		c.mu.Lock()
		start, killAt := 0, -1
		for i, b := range p {
			if b != '\n' {
				continue
			}
			var line []byte
			if start == 0 && len(c.wLineBuf) > 0 {
				line = append(append([]byte{}, c.wLineBuf...), p[:i+1]...)
			} else {
				line = p[start : i+1]
			}
			if pred(line) {
				killAt = start
				break
			}
			c.wLineBuf = nil
			start = i + 1
		}
		if killAt >= 0 {
			c.killed = true
			c.wLineBuf = nil
			c.mu.Unlock()
			n, _ := c.writeRaw(p[:killAt], chunk)
			c.inner.Close()
			return n, ErrKilled
		}
		c.wLineBuf = append(c.wLineBuf, p[start:]...)
		c.mu.Unlock()
	}
	return c.writeRaw(p, chunk)
}

// writeRaw applies corruption to a copy and writes all bytes in
// chunk-sized underlying writes.
func (c *Conn) writeRaw(p []byte, chunk int) (int, error) {
	data := p
	c.mu.Lock()
	if len(c.corruptW) > 0 {
		cp := append([]byte{}, p...)
		for off, mask := range c.corruptW {
			if rel := off - c.writeOff; rel >= 0 && rel < int64(len(cp)) {
				cp[rel] ^= mask
			}
		}
		data = cp
	}
	c.writeOff += int64(len(p))
	c.mu.Unlock()
	for written := 0; written < len(data); {
		end := len(data)
		if chunk > 0 && end-written > chunk {
			end = written + chunk
		}
		n, err := c.inner.Write(data[written:end])
		written += n
		if err != nil {
			return written, err
		}
	}
	return len(p), nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.inner.Close() }

// LocalAddr returns the underlying local address.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr returns the underlying remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline delegates to the underlying connection.
func (c *Conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline delegates to the underlying connection.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline delegates to the underlying connection.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

// Listener wraps a net.Listener so every accepted connection is
// fault-injectable. OnAccept (if set) runs synchronously before the
// connection is handed to the server, which is the window for
// scripting per-connection faults deterministically.
type Listener struct {
	net.Listener

	mu       sync.Mutex
	onAccept func(*Conn)
	conns    []*Conn
}

// WrapListener wraps ln. onAccept may be nil.
func WrapListener(ln net.Listener, onAccept func(*Conn)) *Listener {
	return &Listener{Listener: ln, onAccept: onAccept}
}

// Accept wraps the next accepted connection in a Conn, records it,
// and runs the OnAccept hook before returning it.
func (l *Listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := Wrap(nc)
	l.mu.Lock()
	l.conns = append(l.conns, fc)
	cb := l.onAccept
	l.mu.Unlock()
	if cb != nil {
		cb(fc)
	}
	return fc, nil
}

// Conns returns every connection accepted so far, oldest first.
func (l *Listener) Conns() []*Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Conn, len(l.conns))
	copy(out, l.conns)
	return out
}

// KillAll severs every accepted connection.
func (l *Listener) KillAll() {
	for _, c := range l.Conns() {
		c.Kill()
	}
}
