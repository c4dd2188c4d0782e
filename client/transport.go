package client

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"eventdb/internal/frame"
)

// The wire transport abstraction: one API, two encodings. A transport
// owns the encoding of outbound commands and the decoding of inbound
// traffic into wire messages; everything above it — demultiplexing,
// subscriptions, request/reply ordering — is mode-agnostic.
//
// textTransport speaks the legacy line protocol every server
// understands; binTransport speaks the length-prefixed frame protocol
// negotiated by HELLO 2 or 3 (internal/frame, PROTOCOL.md). Dial picks
// one during the synchronous handshake, before the read loop starts.

// wkind classifies one inbound wire message.
type wkind int

const (
	// wReply is a request reply or connection-level line ("OK ...",
	// "ERR ...", "PONG").
	wReply wkind = iota
	// wEvt is a pushed subscription event.
	wEvt
	// wEvts is one pushed event for several subscriptions (HELLO 3).
	wEvts
	// wQEvt is a pushed durable queue delivery.
	wQEvt
	// wSkip is a malformed push: ignored, never fatal (matching the
	// text protocol's tolerance).
	wSkip
)

// wmsg is one decoded inbound message. body aliases transport-owned
// memory and is only valid until the next recv call.
type wmsg struct {
	kind    wkind
	line    string   // wReply
	id      string   // wEvt subscription id
	ids     [][]byte // wEvts subscription ids
	queue   string   // wQEvt
	token   string   // wQEvt
	attempt int      // wQEvt
	body    []byte   // wEvt/wEvts/wQEvt event JSON
}

// transport encodes requests and decodes inbound traffic for one wire
// mode. send/sendEvent are serialized by Conn.sendMu; recv is called
// only by the read loop.
type transport interface {
	// send writes one command and its optional body units (PUBB batch
	// events), flushing once.
	send(cmd string, body ...string) error
	// sendEvent publishes one marshaled event — the hot path, spared
	// the verb formatting in binary mode.
	sendEvent(json []byte) error
	// recv decodes the next inbound message.
	recv() (wmsg, error)
}

// --- text -------------------------------------------------------------

type textTransport struct {
	w  *bufio.Writer
	br *bufio.Reader
}

func (t *textTransport) send(cmd string, body ...string) error {
	t.w.WriteString(cmd)
	t.w.WriteByte('\n')
	for _, line := range body {
		t.w.WriteString(line)
		t.w.WriteByte('\n')
	}
	return t.w.Flush()
}

func (t *textTransport) sendEvent(json []byte) error {
	t.w.WriteString("PUB ")
	t.w.Write(json)
	t.w.WriteByte('\n')
	return t.w.Flush()
}

func (t *textTransport) recv() (wmsg, error) {
	line, err := t.br.ReadString('\n')
	if err != nil {
		return wmsg{}, err
	}
	line = strings.TrimRight(line, "\r\n")
	if rest, ok := strings.CutPrefix(line, "EVT "); ok {
		id, body, _ := strings.Cut(rest, " ")
		return wmsg{kind: wEvt, id: id, body: []byte(body)}, nil
	}
	if rest, ok := strings.CutPrefix(line, "QEVT "); ok {
		name, rest, _ := strings.Cut(rest, " ")
		token, rest, _ := strings.Cut(rest, " ")
		attemptStr, body, _ := strings.Cut(rest, " ")
		attempt, err := strconv.Atoi(attemptStr)
		if err != nil {
			return wmsg{kind: wSkip}, nil
		}
		return wmsg{kind: wQEvt, queue: name, token: token, attempt: attempt, body: []byte(body)}, nil
	}
	return wmsg{kind: wReply, line: line}, nil
}

// --- binary -----------------------------------------------------------

type binTransport struct {
	w   *bufio.Writer
	fr  *frame.Reader
	buf []byte   // scratch for outbound frames (guarded by Conn.sendMu)
	ids [][]byte // the last Evts frame's ids (read loop)
}

func (t *binTransport) send(cmd string, body ...string) error {
	t.buf = frame.AppendFrameString(t.buf[:0], frame.Cmd, cmd)
	if _, err := t.w.Write(t.buf); err != nil {
		return err
	}
	for _, line := range body {
		t.buf = frame.AppendFrameString(t.buf[:0], frame.Data, line)
		if _, err := t.w.Write(t.buf); err != nil {
			return err
		}
	}
	return t.w.Flush()
}

func (t *binTransport) sendEvent(json []byte) error {
	t.buf = frame.AppendFrame(t.buf[:0], frame.Pub, json)
	if _, err := t.w.Write(t.buf); err != nil {
		return err
	}
	return t.w.Flush()
}

func (t *binTransport) recv() (wmsg, error) {
	typ, payload, err := t.fr.Next()
	if err != nil {
		return wmsg{}, err
	}
	switch typ {
	case frame.Reply:
		return wmsg{kind: wReply, line: string(payload)}, nil
	case frame.Evt:
		id, body, ok := frame.DecodeEvt(payload)
		if !ok {
			return wmsg{kind: wSkip}, nil
		}
		return wmsg{kind: wEvt, id: id, body: body}, nil
	case frame.Evts:
		ids, body, ok := frame.DecodeEvts(payload, t.ids[:0])
		if !ok {
			return wmsg{kind: wSkip}, nil
		}
		t.ids = ids
		return wmsg{kind: wEvts, ids: ids, body: body}, nil
	case frame.QEvt:
		queue, token, attempt, body, ok := frame.DecodeQEvt(payload)
		if !ok {
			return wmsg{kind: wSkip}, nil
		}
		return wmsg{kind: wQEvt, queue: queue, token: token, attempt: attempt, body: body}, nil
	default:
		// Unknown frame types are a framing-trust failure, not a skippable
		// push: the stream cannot be safely resynchronized.
		return wmsg{}, fmt.Errorf("client: unexpected frame type %s", typ)
	}
}

// --- negotiation ------------------------------------------------------

// negotiate runs the HELLO handshake synchronously (before the read
// loop exists): it asks for protocol version 3 (2 and 3 are both
// binary) and reports whether the server's answer is binary. A
// pre-HELLO server answers "ERR unknown ..." — a silent fallback to
// text, not a failure, so new clients keep working against old servers.
func negotiate(br *bufio.Reader, w *bufio.Writer) (binary bool, err error) {
	w.WriteString("HELLO 3\n")
	if err := w.Flush(); err != nil {
		return false, fmt.Errorf("client: hello: %w", err)
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return false, fmt.Errorf("client: hello: %w", err)
	}
	line = strings.TrimRight(line, "\r\n")
	if msg, ok := strings.CutPrefix(line, "ERR "); ok {
		serr := serverError(msg)
		if serr.Code == "unknown" {
			return false, nil // pre-HELLO server: stay on text
		}
		return false, serr
	}
	rest, ok := strings.CutPrefix(line, "OK ")
	if !ok {
		return false, fmt.Errorf("client: bad HELLO reply %q", line)
	}
	v, _, _ := strings.Cut(rest, " ") // a flag list may follow
	ver, err := strconv.Atoi(v)
	if err != nil {
		return false, fmt.Errorf("client: bad HELLO reply %q", line)
	}
	return ver >= 2, nil
}
