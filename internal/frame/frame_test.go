package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"eventdb/internal/raceflag"
)

// evts is AppendEvts for a frame that fits.
func evts(dst []byte, ids []string, cut int, json []byte) []byte {
	dst, ok := AppendEvts(dst, ids, cut, json)
	if !ok {
		panic("frame: an Evts frame under test exceeds MaxPayload")
	}
	return dst
}

func readAll(t *testing.T, stream []byte) (types []Type, payloads [][]byte) {
	t.Helper()
	fr := NewReader(bufio.NewReader(bytes.NewReader(stream)))
	for {
		typ, p, err := fr.Next()
		if err == io.EOF {
			return types, payloads
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		types = append(types, typ)
		payloads = append(payloads, append([]byte(nil), p...))
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	stream = AppendFrameString(stream, Cmd, "SUB x>1")
	stream = AppendFrame(stream, Pub, []byte(`{"x":2}`))
	stream = AppendFrameString(stream, Reply, "OK 1")
	stream = AppendFrame(stream, Data, nil) // empty payload is legal

	types, payloads := readAll(t, stream)
	wantT := []Type{Cmd, Pub, Reply, Data}
	wantP := []string{"SUB x>1", `{"x":2}`, "OK 1", ""}
	if len(types) != len(wantT) {
		t.Fatalf("got %d frames, want %d", len(types), len(wantT))
	}
	for i := range wantT {
		if types[i] != wantT[i] || string(payloads[i]) != wantP[i] {
			t.Fatalf("frame %d = (%v, %q), want (%v, %q)", i, types[i], payloads[i], wantT[i], wantP[i])
		}
	}
}

func TestEvtRoundTrip(t *testing.T) {
	json := []byte(`{"kind":"trade","px":101.5}`)
	stream := AppendEvt(nil, "sub-7", json)
	types, payloads := readAll(t, stream)
	if len(types) != 1 || types[0] != Evt {
		t.Fatalf("got %v, want one Evt frame", types)
	}
	id, got, ok := DecodeEvt(payloads[0])
	if !ok || id != "sub-7" || !bytes.Equal(got, json) {
		t.Fatalf("DecodeEvt = (%q, %q, %v)", id, got, ok)
	}
}

func TestEvtsRoundTrip(t *testing.T) {
	json := []byte(`{"kind":"trade","px":101.5}`)
	names := []string{"wire.1.a", "wire.1.sub-7", "wire.1." + strings.Repeat("x", 200)}
	types, payloads := readAll(t, evts(nil, names, len("wire.1."), json))
	if len(types) != 1 || types[0] != Evts {
		t.Fatalf("got %v, want one Evts frame", types)
	}
	ids, got, ok := DecodeEvts(payloads[0], nil)
	if !ok || len(ids) != len(names) || !bytes.Equal(got, json) {
		t.Fatalf("DecodeEvts = (%q, %q, %v)", ids, got, ok)
	}
	for i, id := range ids {
		if string(id) != names[i][len("wire.1."):] {
			t.Fatalf("id %d = %q, want %q", i, id, names[i][len("wire.1."):])
		}
	}
}

// TestEvtsMaxPayload: an Evts frame is built only when its payload fits
// MaxPayload, which a Reader accepts; one byte more and nothing is
// appended, so the sender can fall back to one Evt frame per id.
func TestEvtsMaxPayload(t *testing.T) {
	ids := []string{"wire.1.a", "wire.1.bc"}
	head := 1 + (1 + 1) + (1 + 2) // count, then each id's length and bytes
	json := make([]byte, MaxPayload-head)
	stream, ok := AppendEvts(nil, ids, len("wire.1."), json)
	if !ok {
		t.Fatal("a payload of exactly MaxPayload was refused")
	}
	if _, payloads := readAll(t, stream); len(payloads) != 1 || len(payloads[0]) != MaxPayload {
		t.Fatalf("read %d frames, want one of MaxPayload bytes", len(payloads))
	}
	dst := []byte("kept")
	if got, ok := AppendEvts(dst, ids, len("wire.1."), append(json, 0)); ok || string(got) != "kept" {
		t.Fatalf("a payload of MaxPayload+1: ok=%v, dst %d bytes; want refused, dst as it was", ok, len(got))
	}
}

func TestDecodeEvtsMalformed(t *testing.T) {
	payload := evts(nil, []string{"a", "bc"}, 0, []byte(`{}`))[2:] // type and length bytes
	// A prefix that cuts into the id list is malformed; one that ends
	// after the last id decodes with the JSON that is left.
	for cut := 0; cut < len(payload); cut++ {
		ids, _, ok := DecodeEvts(payload[:cut], nil)
		if ok != (cut >= 1+2+3) {
			t.Fatalf("cut=%d: ok=%v", cut, ok)
		}
		if ok && (len(ids) != 2 || string(ids[0]) != "a" || string(ids[1]) != "bc") {
			t.Fatalf("cut=%d: decoded %q", cut, ids)
		}
	}
	if _, _, ok := DecodeEvts([]byte{0x80, 0x80, 0x80, 0x80, 0x01}, nil); ok {
		t.Fatal("a count larger than the payload decoded")
	}
}

func TestQEvtRoundTrip(t *testing.T) {
	json := []byte(`{"n":1}`)
	stream := AppendQEvt(nil, "orders", "h42", 3, json)
	types, payloads := readAll(t, stream)
	if len(types) != 1 || types[0] != QEvt {
		t.Fatalf("got %v, want one QEvt frame", types)
	}
	q, tok, attempt, got, ok := DecodeQEvt(payloads[0])
	if !ok || q != "orders" || tok != "h42" || attempt != 3 || !bytes.Equal(got, json) {
		t.Fatalf("DecodeQEvt = (%q, %q, %d, %q, %v)", q, tok, attempt, got, ok)
	}
}

func TestLargePayloadRoundTrip(t *testing.T) {
	// Payload long enough to need a multi-byte uvarint length.
	big := bytes.Repeat([]byte("x"), 200_000)
	stream := AppendFrame(nil, Data, big)
	_, payloads := readAll(t, stream)
	if len(payloads) != 1 || !bytes.Equal(payloads[0], big) {
		t.Fatal("large payload did not round-trip")
	}
}

func TestReaderRejectsOversizedFrame(t *testing.T) {
	var hdr []byte
	hdr = append(hdr, byte(Data))
	hdr = binary.AppendUvarint(hdr, MaxPayload+1)
	fr := NewReader(bufio.NewReader(bytes.NewReader(hdr)))
	if _, _, err := fr.Next(); !errors.Is(err, ErrTooBig) {
		t.Fatalf("err = %v, want ErrTooBig", err)
	}
}

func TestReaderTruncatedFrame(t *testing.T) {
	full := AppendFrameString(nil, Cmd, "PING")
	for cut := 1; cut < len(full); cut++ {
		fr := NewReader(bufio.NewReader(bytes.NewReader(full[:cut])))
		_, _, err := fr.Next()
		if err == nil {
			t.Fatalf("cut=%d: truncated frame decoded without error", cut)
		}
		if err == io.EOF {
			t.Fatalf("cut=%d: mid-frame truncation reported as clean EOF", cut)
		}
		if !fr.Midframe() {
			t.Fatalf("cut=%d: Midframe() = false after partial frame", cut)
		}
	}
	// A clean boundary is EOF, not mid-frame.
	fr := NewReader(bufio.NewReader(bytes.NewReader(full)))
	if _, _, err := fr.Next(); err != nil {
		t.Fatalf("full frame: %v", err)
	}
	if fr.Midframe() {
		t.Fatal("Midframe() = true after complete frame")
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("at stream end err = %v, want io.EOF", err)
	}
}

func TestOnHeaderFiresPerFrame(t *testing.T) {
	stream := AppendFrameString(nil, Cmd, "PING")
	stream = AppendFrameString(stream, Cmd, "STATS")
	fr := NewReader(bufio.NewReader(bytes.NewReader(stream)))
	calls := 0
	fr.OnHeader = func() { calls++ }
	for i := 0; i < 2; i++ {
		if _, _, err := fr.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	if calls != 2 {
		t.Fatalf("OnHeader fired %d times, want 2", calls)
	}
}

func TestDecodeEvtMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x05},                         // declares 5 id bytes, has none
		{0x03, 'a', 'b'},               // declares 3, has 2
		bytes.Repeat([]byte{0x80}, 10), // unterminated uvarint
	}
	for _, c := range cases {
		if _, _, ok := DecodeEvt(c); ok {
			t.Fatalf("DecodeEvt(%x) ok, want malformed", c)
		}
	}
}

func TestDecodeQEvtMalformed(t *testing.T) {
	good := AppendQEvt(nil, "q", "tok", 1, []byte(`{}`))
	// Strip the frame header (type byte + length uvarint) to get payload.
	fr := NewReader(bufio.NewReader(bytes.NewReader(good)))
	_, payload, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix of a valid payload must fail cleanly, except
	// prefixes that happen to end exactly after the attempt varint —
	// those decode with empty JSON, which is fine (the JSON tail is
	// whatever remains).
	for cut := 0; cut < len(payload); cut++ {
		q, tok, _, _, ok := DecodeQEvt(payload[:cut])
		if ok && (q != "q" || tok != "tok") {
			t.Fatalf("cut=%d: decoded wrong fields (%q, %q)", cut, q, tok)
		}
	}
}

func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendFrameString(nil, Cmd, "PING"))
	f.Add(AppendFrameString(nil, Cmd, `PATTERN p {"steps":[{"alias":"a","type":"x"}],"within":"30s"}`))
	f.Add(AppendFrameString(nil, Cmd, "UNPATTERN p"))
	f.Add(AppendFrameString(nil, Cmd, "HEALTH format=json"))
	f.Add(AppendFrameString(nil, Cmd, "RECOVER"))
	f.Add(AppendFrameString(nil, Cmd, `PUBT s1 7 {"type":"t","attrs":{"a":1}}`))
	f.Add(AppendEvt(nil, "s1", []byte(`{"a":1}`)))
	f.Add(AppendQEvt(nil, "q", "h9", 2, []byte(`{"b":2}`)))
	f.Add(evts(nil, []string{"wire.3.f0", "wire.3.f1"}, len("wire.3."), []byte(`{"c":3}`)))
	f.Add(evts(nil, []string{"", "x\xff", "s1"}, 0, nil))
	f.Add([]byte{byte(Evts), 0x03, 0x02, 0x01, 'a'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{byte(Evt), 0x02, 0x05, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Any ids and JSON round-trip: the ids are data cut at 0xff
		// bytes, each under a prefix the encoder drops, and the JSON is
		// data itself.
		ids := strings.Split(string(data), "\xff")
		names := make([]string, len(ids))
		for i, id := range ids {
			names[i] = "wire.9." + id
		}
		_, payloads := readAll(t, evts(nil, names, len("wire.9."), data))
		got, json, ok := DecodeEvts(payloads[0], nil)
		if !ok || len(got) != len(ids) || !bytes.Equal(json, data) {
			t.Fatalf("Evts of %q: decoded (%q, %q, %v)", ids, got, json, ok)
		}
		for i := range ids {
			if string(got[i]) != ids[i] {
				t.Fatalf("Evts id %d: %q, want %q", i, got[i], ids[i])
			}
		}

		fr := NewReader(bufio.NewReader(bytes.NewReader(data)))
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				return
			}
			if len(payload) > MaxPayload {
				t.Fatalf("payload %d bytes exceeds MaxPayload", len(payload))
			}
			// Decoders must never panic or claim bytes beyond the payload.
			switch typ {
			case Evt:
				if id, json, ok := DecodeEvt(payload); ok {
					if len(id)+len(json) > len(payload) {
						t.Fatal("DecodeEvt over-read")
					}
				}
			case Evts:
				ids, json, ok := DecodeEvts(payload, nil)
				if !ok {
					break
				}
				n := len(json)
				for _, id := range ids {
					n += len(id)
				}
				if n > len(payload) {
					t.Fatal("DecodeEvts over-read")
				}
				// What it decodes encodes back to the same ids and JSON.
				strs := make([]string, len(ids))
				for i, id := range ids {
					strs[i] = string(id)
				}
				_, again := readAll(t, evts(nil, strs, 0, json))
				ids2, json2, ok := DecodeEvts(again[0], nil)
				if !ok || len(ids2) != len(ids) || !bytes.Equal(json2, json) {
					t.Fatalf("Evts re-encode: (%q, %q, %v), want (%q, %q)", ids2, json2, ok, ids, json)
				}
				for i := range ids {
					if !bytes.Equal(ids[i], ids2[i]) {
						t.Fatalf("Evts re-encode id %d: %q, want %q", i, ids2[i], ids[i])
					}
				}
			case QEvt:
				if q, tok, _, json, ok := DecodeQEvt(payload); ok {
					if len(q)+len(tok)+len(json) > len(payload) {
						t.Fatal("DecodeQEvt over-read")
					}
				}
			}
		}
	})
}

// TestAllocsFrameAppend is the CI guard for the binary fan-out path:
// framing a cached payload into a preallocated buffer must not
// allocate, so the encode-once pipeline stays allocation-free from
// the EncodedJSON cache to the socket; and an Evts frame's ids decode
// into a reused slice without allocating.
func TestAllocsFrameAppend(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	json := []byte(`{"kind":"trade","px":101.5,"qty":300}`)
	buf := make([]byte, 0, 4096)
	names := []string{"wire.1.s0", "wire.1.s1", "wire.1.s2"}
	ids := make([][]byte, 0, len(names))
	if n := testing.AllocsPerRun(200, func() {
		buf = evts(buf[:0], names, len("wire.1."), json)
		ids, _, _ = DecodeEvts(buf[2:], ids[:0])
		buf = AppendEvt(buf[:0], "wire.1.s0", json)
		buf = AppendQEvt(buf[:0], "orders", "h123", 1, json)
		buf = AppendFrameString(buf[:0], Reply, "OK 1")
		buf = AppendFrame(buf[:0], Pub, json)
	}); n != 0 {
		t.Fatalf("frame append allocated %.1f times per run, want 0", n)
	}
}

func TestTypeString(t *testing.T) {
	for _, tc := range []struct {
		t    Type
		want string
	}{
		{Cmd, "CMD"}, {Data, "DATA"}, {Pub, "PUB"},
		{Reply, "REPLY"}, {Evt, "EVT"}, {QEvt, "QEVT"}, {Evts, "EVTS"},
		{Type(0x7f), "frame(0x7f)"},
	} {
		if got := tc.t.String(); got != tc.want {
			t.Fatalf("Type(%d).String() = %q, want %q", tc.t, got, tc.want)
		}
	}
}

// TestReaderZeroCopySmallFrames pins the hot-path property: a payload
// that fits the bufio buffer is returned by aliasing it — no per-frame
// allocation at all.
func TestReaderZeroCopySmallFrames(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	var stream []byte
	for i := 0; i < 8; i++ {
		stream = AppendFrameString(stream, Cmd, strings.Repeat("x", 100))
	}
	src := bytes.NewReader(stream)
	br := bufio.NewReader(src)
	fr := NewReader(br)
	allocs := testing.AllocsPerRun(8, func() {
		_, p, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != 100 || p[0] != 'x' {
			t.Fatalf("bad payload %q", p)
		}
		// Rewind so every AllocsPerRun iteration has a frame to read.
		src.Seek(0, io.SeekStart)
		br.Reset(src)
	})
	if allocs != 0 {
		t.Errorf("small-frame read allocates %v times, want 0", allocs)
	}
}

// TestReaderReusesBuffer covers the fallback path: payloads larger
// than the bufio buffer are copied into the reader's own buffer, which
// is reused (not reallocated) across frames.
func TestReaderReusesBuffer(t *testing.T) {
	big := bufio.NewReaderSize(bytes.NewReader(nil), 64).Size() * 4
	var stream []byte
	stream = AppendFrameString(nil, Cmd, strings.Repeat("a", big))
	stream = AppendFrameString(stream, Cmd, strings.Repeat("b", big-50))
	fr := NewReader(bufio.NewReaderSize(bytes.NewReader(stream), 64))
	_, p1, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	first := &p1[0]
	_, p2, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if &p2[0] != first {
		t.Error("second oversized payload did not reuse the reader buffer")
	}
	if len(p2) != big-50 || p2[0] != 'b' {
		t.Error("reused buffer holds wrong content")
	}
}
