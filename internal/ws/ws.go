// Package ws is a minimal WebSocket (RFC 6455) implementation — just
// enough protocol for the eventdb gateway: HTTP upgrade handshake,
// text/binary data frames, the control triplet (ping/pong/close), and
// the masking rules. It deliberately omits everything the gateway does
// not need: extensions (permessage-deflate), subprotocol negotiation
// beyond echoing, and streaming frame bodies (messages are read fully
// into memory, bounded by a 16 MiB limit).
//
// The zero dependency constraint is the point: the standard library
// has no WebSocket package, and the gateway must not pull one in.
package ws

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
)

// Opcodes (RFC 6455 §5.2).
const (
	OpContinuation = 0x0
	OpText         = 0x1
	OpBinary       = 0x2
	OpClose        = 0x8
	OpPing         = 0x9
	OpPong         = 0xA
)

// Close codes (RFC 6455 §7.4.1) the gateway uses.
const (
	CloseNormal    = 1000
	CloseGoingAway = 1001
)

// magicGUID is the fixed handshake GUID from RFC 6455 §1.3.
const magicGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// ErrClosed is returned after a close frame has been exchanged or the
// connection is torn down.
var ErrClosed = errors.New("ws: connection closed")

// ErrTooBig is returned when an inbound message exceeds the read limit.
var ErrTooBig = errors.New("ws: message exceeds read limit")

// CloseError carries the peer's close frame status.
type CloseError struct {
	Code   int
	Reason string
}

func (e *CloseError) Error() string {
	return fmt.Sprintf("ws: peer closed connection: code=%d reason=%q", e.Code, e.Reason)
}

// AcceptKey computes the Sec-WebSocket-Accept value for a client key.
func AcceptKey(clientKey string) string {
	h := sha1.Sum([]byte(clientKey + magicGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// Conn is one WebSocket connection. One goroutine must own the read
// side (ReadMessage); writes are internally serialized and may come
// from any goroutine — necessary because ReadMessage itself writes
// (it answers pings), concurrently with the application's sender.
type Conn struct {
	nc     net.Conn
	br     *bufio.Reader
	server bool // server side: inbound must be masked, outbound is not

	readLimit int64 // max inbound message size (0 = defaultReadLimit; tests lower it)

	wmu  sync.Mutex
	wbuf []byte // frame header + masked-payload scratch (guarded by wmu)
}

const defaultReadLimit = 16 << 20

func (c *Conn) limit() int64 {
	if c.readLimit > 0 {
		return c.readLimit
	}
	return defaultReadLimit
}

// NetConn exposes the underlying connection (for deadlines).
func (c *Conn) NetConn() net.Conn { return c.nc }

// Close tears down the transport without a closing handshake.
func (c *Conn) Close() error { return c.nc.Close() }

// --- handshake --------------------------------------------------------

// IsUpgrade reports whether the request asks for a WebSocket upgrade.
func IsUpgrade(r *http.Request) bool {
	return headerHasToken(r.Header, "Connection", "upgrade") &&
		strings.EqualFold(r.Header.Get("Upgrade"), "websocket")
}

// headerHasToken reports whether a comma-separated header contains the
// token (case-insensitive) — "Connection: keep-alive, Upgrade" must
// match.
func headerHasToken(h http.Header, key, token string) bool {
	for _, v := range h.Values(key) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// Accept upgrades an HTTP request to a WebSocket connection. On
// failure it writes the HTTP error itself and returns the error; on
// success the caller owns the hijacked connection.
func Accept(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if r.Method != http.MethodGet {
		http.Error(w, "websocket upgrade requires GET", http.StatusMethodNotAllowed)
		return nil, fmt.Errorf("ws: method %s", r.Method)
	}
	if !IsUpgrade(r) {
		http.Error(w, "not a websocket upgrade", http.StatusBadRequest)
		return nil, errors.New("ws: missing upgrade headers")
	}
	if v := r.Header.Get("Sec-WebSocket-Version"); v != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		http.Error(w, "unsupported websocket version", http.StatusUpgradeRequired)
		return nil, fmt.Errorf("ws: version %q", v)
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, errors.New("ws: missing key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "webserver does not support hijacking", http.StatusInternalServerError)
		return nil, errors.New("ws: response not hijackable")
	}
	nc, brw, err := hj.Hijack()
	if err != nil {
		http.Error(w, "hijack failed", http.StatusInternalServerError)
		return nil, fmt.Errorf("ws: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + AcceptKey(key) + "\r\n\r\n"
	if _, err := brw.WriteString(resp); err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: handshake write: %w", err)
	}
	if err := brw.Flush(); err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: handshake flush: %w", err)
	}
	return &Conn{nc: nc, br: brw.Reader, server: true}, nil
}

// Dial opens a client WebSocket connection to url ("ws://host:port/path").
// Minimal by design — it exists for the gateway's own tests and for
// simple Go consumers of the gateway.
func Dial(url string, header http.Header) (*Conn, error) {
	rest, ok := strings.CutPrefix(url, "ws://")
	if !ok {
		return nil, fmt.Errorf("ws: only ws:// urls are supported, got %q", url)
	}
	host, path, _ := strings.Cut(rest, "/")
	path = "/" + path
	nc, err := net.Dial("tcp", host)
	if err != nil {
		return nil, fmt.Errorf("ws: dial: %w", err)
	}
	keyBytes := make([]byte, 16)
	if _, err := rand.Read(keyBytes); err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: key: %w", err)
	}
	key := base64.StdEncoding.EncodeToString(keyBytes)
	var b strings.Builder
	fmt.Fprintf(&b, "GET %s HTTP/1.1\r\n", path)
	fmt.Fprintf(&b, "Host: %s\r\n", host)
	b.WriteString("Upgrade: websocket\r\nConnection: Upgrade\r\n")
	fmt.Fprintf(&b, "Sec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n", key)
	for k, vs := range header {
		for _, v := range vs {
			fmt.Fprintf(&b, "%s: %s\r\n", k, v)
		}
	}
	b.WriteString("\r\n")
	if _, err := nc.Write([]byte(b.String())); err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: handshake write: %w", err)
	}
	br := bufio.NewReaderSize(nc, 4096)
	status, err := br.ReadString('\n')
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: handshake read: %w", err)
	}
	if !strings.Contains(status, " 101 ") {
		nc.Close()
		return nil, fmt.Errorf("ws: handshake refused: %s", strings.TrimSpace(status))
	}
	accept := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			nc.Close()
			return nil, fmt.Errorf("ws: handshake read: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if k, v, ok := strings.Cut(line, ":"); ok && strings.EqualFold(k, "Sec-WebSocket-Accept") {
			accept = strings.TrimSpace(v)
		}
	}
	if accept != AcceptKey(key) {
		nc.Close()
		return nil, errors.New("ws: handshake accept-key mismatch")
	}
	return &Conn{nc: nc, br: br, server: false}, nil
}

// --- frames -----------------------------------------------------------

// maxControlPayload is the RFC 6455 §5.5 cap on control frame bodies.
const maxControlPayload = 125

// WriteMessage writes one complete message (no fragmentation) with the
// given data opcode (OpText or OpBinary).
func (c *Conn) WriteMessage(opcode int, payload []byte) error {
	return c.writeFrame(opcode, payload)
}

// WritePong answers a ping.
func (c *Conn) WritePong(payload []byte) error { return c.writeFrame(OpPong, payload) }

// WriteClose sends a close frame with a status code and reason.
func (c *Conn) WriteClose(code int, reason string) error {
	if len(reason) > maxControlPayload-2 {
		reason = reason[:maxControlPayload-2]
	}
	p := make([]byte, 2+len(reason))
	binary.BigEndian.PutUint16(p, uint16(code))
	copy(p[2:], reason)
	return c.writeFrame(OpClose, p)
}

func (c *Conn) writeFrame(opcode int, payload []byte) error {
	if opcode >= OpClose && len(payload) > maxControlPayload {
		return fmt.Errorf("ws: control frame payload %d exceeds %d bytes", len(payload), maxControlPayload)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	b := c.wbuf[:0]
	b = append(b, 0x80|byte(opcode)) // FIN always set: no fragmentation
	maskBit := byte(0)
	if !c.server {
		maskBit = 0x80 // client→server frames must be masked (§5.3)
	}
	switch {
	case len(payload) <= 125:
		b = append(b, maskBit|byte(len(payload)))
	case len(payload) <= 0xFFFF:
		b = append(b, maskBit|126, byte(len(payload)>>8), byte(len(payload)))
	default:
		b = append(b, maskBit|127)
		b = binary.BigEndian.AppendUint64(b, uint64(len(payload)))
	}
	if c.server {
		b = append(b, payload...)
	} else {
		var mask [4]byte
		if _, err := rand.Read(mask[:]); err != nil {
			return fmt.Errorf("ws: mask: %w", err)
		}
		b = append(b, mask[:]...)
		start := len(b)
		b = append(b, payload...)
		maskBytes(b[start:], mask, 0)
	}
	c.wbuf = b[:0]
	_, err := c.nc.Write(b)
	return err
}

// maskBytes XORs data with the mask, offset giving the position of
// data[0] within the message.
func maskBytes(data []byte, mask [4]byte, offset int) {
	for i := range data {
		data[i] ^= mask[(offset+i)&3]
	}
}

// ReadMessage reads the next complete data message, transparently
// answering pings, absorbing pongs, and assembling fragmented
// messages. It returns the data opcode (OpText or OpBinary) and the
// payload. A peer close frame is answered and surfaced as *CloseError.
func (c *Conn) ReadMessage() (opcode int, payload []byte, err error) {
	var msg []byte
	msgOp := 0
	for {
		op, fin, p, err := c.readFrame()
		if err != nil {
			return 0, nil, err
		}
		switch op {
		case OpPing:
			if err := c.WritePong(p); err != nil {
				return 0, nil, err
			}
			continue
		case OpPong:
			continue
		case OpClose:
			ce := &CloseError{Code: CloseNormal}
			if len(p) >= 2 {
				ce.Code = int(binary.BigEndian.Uint16(p))
				ce.Reason = string(p[2:])
			}
			// Echo the close (best effort) to complete the handshake.
			c.WriteClose(ce.Code, "")
			return 0, nil, ce
		case OpText, OpBinary:
			if msgOp != 0 {
				return 0, nil, errors.New("ws: new data frame inside fragmented message")
			}
			if fin {
				return op, p, nil
			}
			msgOp = op
			msg = append(msg, p...)
		case OpContinuation:
			if msgOp == 0 {
				return 0, nil, errors.New("ws: continuation frame without start")
			}
			if int64(len(msg))+int64(len(p)) > c.limit() {
				return 0, nil, ErrTooBig
			}
			msg = append(msg, p...)
			if fin {
				return msgOp, msg, nil
			}
		default:
			return 0, nil, fmt.Errorf("ws: unknown opcode %#x", op)
		}
	}
}

// readFrame reads one raw frame, unmasking as needed.
func (c *Conn) readFrame() (opcode int, fin bool, payload []byte, err error) {
	var hdr [2]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, false, nil, err
	}
	fin = hdr[0]&0x80 != 0
	if hdr[0]&0x70 != 0 {
		return 0, false, nil, errors.New("ws: nonzero RSV bits (no extensions negotiated)")
	}
	opcode = int(hdr[0] & 0x0F)
	masked := hdr[1]&0x80 != 0
	n := int64(hdr[1] & 0x7F)
	switch n {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, false, nil, err
		}
		n = int64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, false, nil, err
		}
		u := binary.BigEndian.Uint64(ext[:])
		if u > 1<<62 {
			return 0, false, nil, ErrTooBig
		}
		n = int64(u)
	}
	if opcode >= OpClose {
		if n > maxControlPayload {
			return 0, false, nil, errors.New("ws: oversized control frame")
		}
		if !fin {
			return 0, false, nil, errors.New("ws: fragmented control frame")
		}
	}
	if n > c.limit() {
		return 0, false, nil, ErrTooBig
	}
	if c.server && !masked {
		// §5.1: a server MUST fail the connection on any unmasked
		// client frame.
		return 0, false, nil, errors.New("ws: unmasked client frame")
	}
	var mask [4]byte
	if masked {
		if _, err := io.ReadFull(c.br, mask[:]); err != nil {
			return 0, false, nil, err
		}
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return 0, false, nil, err
	}
	if masked {
		maskBytes(payload, mask, 0)
	}
	return opcode, fin, payload, nil
}
