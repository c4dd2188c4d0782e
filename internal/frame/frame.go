// Package frame is the binary wire framing negotiated by HELLO
// (protocol versions 2 and 3, see PROTOCOL.md). A frame is
//
//	type byte | uvarint payload length | payload
//
// — nothing else. The frame types split by direction: clients send
// Cmd/Data/Pub frames, servers send Reply/Evt/Evts/QEvt frames. Cmd and
// Reply carry exactly the text protocol's lines (minus the newline),
// so every verb, reply, and error code works identically in both
// modes; the typed Evt/Evts/QEvt/Pub frames exist for the hot paths, where
// the event JSON — the cached Event.EncodedJSON bytes — is embedded
// verbatim with no prefix parsing, no line scanning, and no per-sink
// re-encoding between the encode-once cache and the socket.
//
// The Append* builders write complete frames into caller-supplied
// buffers (the server appends straight into a connection's outbound
// buffer), so a frame costs zero allocations — guarded by
// TestAllocsFrameAppend in CI.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Type tags one frame's payload layout.
type Type byte

const (
	// Invalid is never a legal wire type (it doubles as the zero value).
	Invalid Type = 0

	// Cmd (client→server) carries one text command line, newline
	// stripped: any verb of the text protocol, unchanged.
	Cmd Type = 1
	// Data (client→server) carries one command body line — e.g. one
	// JSON event of a PUBB batch.
	Data Type = 2
	// Pub (client→server) is the publish fast path: the payload is the
	// JSON event itself, with no "PUB " verb to parse. Replied to
	// exactly like PUB.
	Pub Type = 3

	// Reply (server→client) carries one reply/status line, newline
	// stripped: "OK ...", "ERR <code> ...", "PONG", "REPL ..." — every
	// non-push line of the text protocol.
	Reply Type = 4
	// Evt (server→client) is a subscription push:
	// uvarint(len id) | id | event JSON.
	Evt Type = 5
	// QEvt (server→client) is a durable queue delivery:
	// uvarint(len queue) | queue | uvarint(len receipt) | receipt |
	// uvarint(attempt) | event JSON.
	QEvt Type = 6
	// Evts (server→client, version 3) is one event pushed to several
	// subscriptions of a connection, its JSON sent once:
	// uvarint(n) | n × (uvarint(len id) | id) | event JSON.
	Evts Type = 7
)

// String names the frame type for errors and logs.
func (t Type) String() string {
	switch t {
	case Cmd:
		return "CMD"
	case Data:
		return "DATA"
	case Pub:
		return "PUB"
	case Reply:
		return "REPLY"
	case Evt:
		return "EVT"
	case QEvt:
		return "QEVT"
	case Evts:
		return "EVTS"
	}
	return fmt.Sprintf("frame(0x%02x)", byte(t))
}

// MaxPayload bounds one frame's payload so a hostile length prefix
// cannot make a reader allocate unbounded memory.
const MaxPayload = 16 << 20

// ErrTooBig reports a frame whose declared payload exceeds MaxPayload.
var ErrTooBig = errors.New("frame: payload exceeds MaxPayload")

// uvarintLen returns the encoded size of v, for computing a payload
// length before writing the header that declares it.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendFrame appends a complete frame wrapping payload.
func AppendFrame(dst []byte, t Type, payload []byte) []byte {
	dst = append(dst, byte(t))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// AppendFrameString is AppendFrame for a string payload, avoiding the
// []byte conversion.
func AppendFrameString(dst []byte, t Type, payload string) []byte {
	dst = append(dst, byte(t))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// AppendEvt appends a complete Evt frame: the subscription id and the
// event JSON (the cached encode-once bytes, copied verbatim).
func AppendEvt(dst []byte, id string, json []byte) []byte {
	sub := uvarintLen(uint64(len(id))) + len(id) + len(json)
	dst = append(dst, byte(Evt))
	dst = binary.AppendUvarint(dst, uint64(sub))
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	dst = append(dst, id...)
	return append(dst, json...)
}

// AppendEvts appends a complete Evts frame: the ids, each less its
// first cut bytes (a server's subscription names carry the connection's
// prefix), and the event JSON once. A payload over MaxPayload, which a
// Reader refuses, is not appended: dst comes back as it was, !ok.
func AppendEvts(dst []byte, ids []string, cut int, json []byte) (_ []byte, ok bool) {
	sub := uvarintLen(uint64(len(ids))) + len(json)
	for _, id := range ids {
		sub += uvarintLen(uint64(len(id)-cut)) + len(id) - cut
	}
	if sub > MaxPayload {
		return dst, false
	}
	dst = append(dst, byte(Evts))
	dst = binary.AppendUvarint(dst, uint64(sub))
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(len(id)-cut))
		dst = append(dst, id[cut:]...)
	}
	return append(dst, json...), true
}

// AppendQEvt appends a complete QEvt frame: queue name, receipt token,
// delivery attempt, and the event JSON verbatim.
func AppendQEvt(dst []byte, queue, token string, attempt int, json []byte) []byte {
	sub := uvarintLen(uint64(len(queue))) + len(queue) +
		uvarintLen(uint64(len(token))) + len(token) +
		uvarintLen(uint64(attempt)) + len(json)
	dst = append(dst, byte(QEvt))
	dst = binary.AppendUvarint(dst, uint64(sub))
	dst = binary.AppendUvarint(dst, uint64(len(queue)))
	dst = append(dst, queue...)
	dst = binary.AppendUvarint(dst, uint64(len(token)))
	dst = append(dst, token...)
	dst = binary.AppendUvarint(dst, uint64(attempt))
	return append(dst, json...)
}

// cutString reads one uvarint-length-prefixed string from payload,
// returning the string bytes and the remainder. ok is false when the
// prefix is malformed or declares more bytes than remain — a decoder
// can never over-read past the payload.
func cutString(payload []byte) (s, rest []byte, ok bool) {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 || n > uint64(len(payload)-sz) {
		return nil, nil, false
	}
	return payload[sz : sz+int(n)], payload[sz+int(n):], true
}

// DecodeEvt splits an Evt frame payload into the subscription id and
// the event JSON. The JSON slice aliases payload.
func DecodeEvt(payload []byte) (id string, json []byte, ok bool) {
	s, rest, ok := cutString(payload)
	if !ok {
		return "", nil, false
	}
	return string(s), rest, true
}

// DecodeEvts splits an Evts frame payload into its subscription ids,
// appended to ids, and the event JSON. Both alias payload, so a caller
// that passes back the ids it got decodes without allocating.
func DecodeEvts(payload []byte, ids [][]byte) (_ [][]byte, json []byte, ok bool) {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 || n > uint64(len(payload)) { // an id takes at least its length byte
		return ids, nil, false
	}
	rest := payload[sz:]
	for ; n > 0; n-- {
		var id []byte
		if id, rest, ok = cutString(rest); !ok {
			return ids, nil, false
		}
		ids = append(ids, id)
	}
	return ids, rest, true
}

// DecodeQEvt splits a QEvt frame payload. The JSON slice aliases
// payload.
func DecodeQEvt(payload []byte) (queue, token string, attempt int, json []byte, ok bool) {
	q, rest, ok := cutString(payload)
	if !ok {
		return "", "", 0, nil, false
	}
	tok, rest, ok := cutString(rest)
	if !ok {
		return "", "", 0, nil, false
	}
	a, sz := binary.Uvarint(rest)
	if sz <= 0 || a > 1<<31 {
		return "", "", 0, nil, false
	}
	return string(q), string(tok), int(a), rest[sz:], true
}

// Reader decodes a frame stream. The payload returned by Next is
// valid only until the following Next call (the buffer is reused).
// It is not safe for concurrent use.
type Reader struct {
	r   *bufio.Reader
	buf []byte
	mid bool

	// OnHeader, when set, runs after a frame's type byte has been
	// consumed and before its payload is read — the server uses it to
	// arm a read deadline covering the rest of the frame, so a
	// half-sent frame cannot hold a connection open forever.
	OnHeader func()
}

// NewReader wraps a buffered reader in a frame decoder.
func NewReader(r *bufio.Reader) *Reader {
	return &Reader{r: r}
}

// Midframe reports whether the reader stopped partway through a frame
// (the type byte arrived but the payload has not finished). A timeout
// with Midframe false is an idle connection; with Midframe true it is
// a stalled sender.
func (fr *Reader) Midframe() bool { return fr.mid }

// Next reads one frame. A payload that fits the underlying bufio
// buffer is returned as a slice aliasing that buffer — no copy, no
// allocation — which is why it is only valid until the following Next
// call; oversized payloads fall back to the reader's own reusable
// buffer.
func (fr *Reader) Next() (Type, []byte, error) {
	tb, err := fr.r.ReadByte()
	if err != nil {
		return Invalid, nil, err
	}
	fr.mid = true
	if fr.OnHeader != nil {
		fr.OnHeader()
	}
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Invalid, nil, err
	}
	if n > MaxPayload {
		return Invalid, nil, fmt.Errorf("%w: %d bytes", ErrTooBig, n)
	}
	if n <= uint64(fr.r.Size()) {
		p, err := fr.r.Peek(int(n))
		if err == nil {
			fr.r.Discard(int(n))
			fr.mid = false
			return Type(tb), p, nil
		}
		if err != io.EOF && err != io.ErrUnexpectedEOF && err != bufio.ErrBufferFull {
			return Invalid, nil, err
		}
		if err != bufio.ErrBufferFull {
			return Invalid, nil, io.ErrUnexpectedEOF
		}
		// ErrBufferFull: the payload fits Size() but not the space the
		// buffered reader can actually present (shouldn't happen with
		// Peek ≤ Size, but fall through to the copying path regardless).
	}
	if uint64(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Invalid, nil, err
	}
	fr.mid = false
	return Type(tb), fr.buf, nil
}
