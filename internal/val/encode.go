package val

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding of values, used by the WAL, the storage engine's
// persistence layer and the wire protocol. Layout: one kind byte followed
// by a kind-specific payload. Variable-length payloads carry a uvarint
// length prefix.

// AppendBinary appends the canonical binary encoding of v to dst and
// returns the extended slice.
func AppendBinary(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool:
		if v.n != 0 {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindInt, KindTime:
		dst = binary.AppendVarint(dst, v.n)
	case KindFloat:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.n))
		dst = append(dst, buf[:]...)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	case KindBytes:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// DecodeBinary decodes one value from buf, returning the value and the
// number of bytes consumed. Decoding a []byte copies a string or bytes
// payload out of buf; decoding a string aliases it, since a string is
// immutable — the value is a substring of buf and costs no allocation.
func DecodeBinary[B string | []byte](buf B) (Value, int, error) {
	if len(buf) == 0 {
		return Null, 0, fmt.Errorf("val: empty buffer")
	}
	k := Kind(buf[0])
	if k >= numKinds {
		return Null, 0, fmt.Errorf("val: invalid kind byte %d", buf[0])
	}
	pos := 1
	switch k {
	case KindNull:
		return Null, pos, nil
	case KindBool:
		if len(buf) < 2 {
			return Null, 0, fmt.Errorf("val: short bool")
		}
		return Bool(buf[1] != 0), 2, nil
	case KindInt, KindTime:
		ux, sz := uvarint(buf[pos:])
		if sz <= 0 {
			return Null, 0, fmt.Errorf("val: bad varint")
		}
		n := int64(ux >> 1) // zig-zag, as binary.Varint
		if ux&1 != 0 {
			n = ^n
		}
		return Value{kind: k, n: n}, pos + sz, nil
	case KindFloat:
		if len(buf) < pos+8 {
			return Null, 0, fmt.Errorf("val: short float")
		}
		var bits uint64 // big-endian, as binary.BigEndian.Uint64
		for i := pos; i < pos+8; i++ {
			bits = bits<<8 | uint64(buf[i])
		}
		return Float(math.Float64frombits(bits)), pos + 8, nil
	case KindString, KindBytes:
		n, sz := uvarint(buf[pos:])
		if sz <= 0 {
			return Null, 0, fmt.Errorf("val: bad length")
		}
		pos += sz
		if uint64(len(buf)-pos) < n {
			return Null, 0, fmt.Errorf("val: short payload: want %d have %d", n, len(buf)-pos)
		}
		payload := string(buf[pos : pos+int(n)])
		return Value{kind: k, s: payload}, pos + int(n), nil
	}
	return Null, 0, fmt.Errorf("val: unreachable kind %d", k)
}

// uvarint is binary.Uvarint over either representation: the value and
// the bytes read, 0 if buf is too short, negative on overflow.
func uvarint[B string | []byte](buf B) (uint64, int) {
	var x uint64
	var s uint
	for i := 0; i < len(buf); i++ {
		if i == binary.MaxVarintLen64 {
			return 0, -(i + 1)
		}
		b := buf[i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, -(i + 1)
			}
			return x | uint64(b)<<s, i + 1
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0
}

// AppendKey appends an order-preserving key encoding of v to dst:
// comparing two encoded keys bytewise agrees with Less. Used by ordered
// indexes.
func AppendKey(dst []byte, v Value) []byte {
	dst = append(dst, byte(rank(v.kind)))
	switch v.kind {
	case KindNull:
	case KindBool:
		if v.n != 0 {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindInt, KindFloat, KindTime:
		// Numerics share a rank, so encode both as order-preserved
		// float64 bits; int64 values up to 2^53 keep exact order, and
		// ties fall back to the int payload appended afterwards.
		f, _ := v.AsFloat()
		if v.kind == KindTime {
			f = float64(v.n)
		}
		bits := math.Float64bits(f)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		dst = append(dst, buf[:]...)
		var ibuf [8]byte
		binary.BigEndian.PutUint64(ibuf[:], uint64(v.n)^(1<<63))
		dst = append(dst, ibuf[:]...)
	case KindString:
		dst = appendEscaped(dst, []byte(v.s))
	case KindBytes:
		dst = appendEscaped(dst, v.bytes())
	}
	return dst
}

// appendEscaped appends data with 0x00 bytes escaped as 0x00 0xFF and a
// 0x00 0x00 terminator, preserving bytewise order across boundaries.
func appendEscaped(dst, data []byte) []byte {
	for _, c := range data {
		if c == 0 {
			dst = append(dst, 0, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0, 0)
}
