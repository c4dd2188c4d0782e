// Package repl implements WAL-shipping replication: a follower tails
// a leader's write-ahead log over the wire plane and applies each
// record to its own engine, mirroring the leader's LSN space 1:1.
//
// Wire protocol (rides the existing line-based command plane):
//
//	follower → leader: REPLICATE <fromLSN>     resume the stream here
//	leader → follower: OK <nextLSN>            stream accepted
//	leader → follower: REPL <lsn> {"t":T,"d":B64}   one WAL record
//	follower → leader: RACK <cursor>           cursor = next LSN expected
//
// Idempotence falls out of LSN arithmetic: the follower skips records
// below its cursor (reconnect overlap) and refuses records above it
// (a gap — it reconnects from the cursor instead). Promotion flips
// the engine's read-only gate off and restores its durable
// registrations, after which the node serves writes as a leader.
package repl

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"eventdb/internal/wal"
)

// wireRecord is the JSON payload of a REPL line. Data rides as
// base64 (encoding/json's []byte convention), so arbitrary record
// bytes survive the line-based framing.
type wireRecord struct {
	Type uint8  `json:"t"`
	Data []byte `json:"d"`
}

// AppendRecord renders one replication line — "REPL <lsn> <json>" —
// into dst and returns the extended slice. The transport adds the
// newline framing.
func AppendRecord(dst []byte, r wal.Record) ([]byte, error) {
	body, err := json.Marshal(wireRecord{Type: r.Type, Data: r.Data})
	if err != nil {
		return dst, err
	}
	dst = append(dst, "REPL "...)
	dst = strconv.AppendUint(dst, r.LSN, 10)
	dst = append(dst, ' ')
	dst = append(dst, body...)
	return dst, nil
}

// ParseRecord parses the remainder of a REPL line (everything after
// the "REPL " prefix, without the trailing newline) back into a WAL
// record.
func ParseRecord(rest string) (wal.Record, error) {
	sp := strings.IndexByte(rest, ' ')
	if sp <= 0 {
		return wal.Record{}, fmt.Errorf("repl: malformed record line %q", rest)
	}
	lsn, err := strconv.ParseUint(rest[:sp], 10, 64)
	if err != nil {
		return wal.Record{}, fmt.Errorf("repl: bad lsn in record line: %w", err)
	}
	var w wireRecord
	if err := json.Unmarshal([]byte(rest[sp+1:]), &w); err != nil {
		return wal.Record{}, fmt.Errorf("repl: bad record body: %w", err)
	}
	return wal.Record{LSN: lsn, Type: w.Type, Data: w.Data}, nil
}
