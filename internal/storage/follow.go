package storage

import (
	"errors"
	"time"

	"eventdb/internal/wal"
)

// followPoll bounds how long Follow sleeps between passes when no
// commit wakes it: records that run no commit hooks (DDL) reach the
// follower within this quantum.
const followPoll = 250 * time.Millisecond

// followPassBytes ends a pass once it holds this many payload bytes, so
// catching up on a long log never holds the log in memory.
const followPassBytes = 1 << 20

// errPassFull ends a cursor read at the pass bound; the record it
// refused opens the next pass.
var errPassFull = errors.New("storage: follow pass full")

// Follow hands fn every WAL record with LSN >= from, in LSN order, one
// pass at a time: a pass drains a wal.Cursor (up to followPassBytes),
// then Follow waits for the next commit or the poll quantum. A slow fn
// delays the passes after it and loses nothing: the cursor falls behind
// by LSN. Follow returns nil once stop closes, and otherwise the first
// error from reading the log (a *wal.TornTailError for corruption,
// wal.ErrTruncated for a checkpointed position) or from fn.
func (db *DB) Follow(from uint64, stop <-chan struct{}, fn func([]wal.Record) error) error {
	if db.log == nil {
		return errors.New("storage: Follow requires a durable (WAL-backed) database")
	}
	wake := make(chan struct{}, 1)
	defer db.OnCommit(func(*CommitInfo) {
		select {
		case wake <- struct{}{}:
		default:
		}
	})()
	c := db.log.Cursor(from)
	var pass []wal.Record
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		pass = pass[:0]
		size := 0
		_, err := c.Next(func(r wal.Record) error {
			if size >= followPassBytes {
				return errPassFull
			}
			pass = append(pass, r)
			size += len(r.Data)
			return nil
		})
		if len(pass) > 0 {
			if err := fn(pass); err != nil {
				return err
			}
		}
		if errors.Is(err, errPassFull) {
			continue
		}
		if err != nil {
			return err
		}
		select {
		case <-stop:
			return nil
		case <-wake:
		case <-time.After(followPoll):
		}
	}
}
