package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"eventdb/internal/core"
	"eventdb/internal/query"
	"eventdb/internal/storage"
	"eventdb/internal/wiredb"
)

// Handlers for the database plane: the paper's §2.2.a capture
// mechanisms made reachable over one connection. TABLE declares state,
// INSERT/UPDATE/DELETE mutate it through the storage engine so
// BEFORE/AFTER triggers fire (capture path i), SELECT reads it back,
// TRIG registers the triggers themselves, WATCH schedules
// repeatedly-evaluated queries whose result-set diffs become events
// (capture path iii), and PATTERN compiles temporal patterns. Captured
// and composite events enter the same ingest path as PUB, so they fan
// out to every SUB, CQ and QSUB on any connection.
// REPLAY (queuecmds.go) covers journal mining, capture path ii.

// dmlFail maps a commit-path error to its wire code: a BEFORE-trigger
// veto is "aborted", spec-shaped problems are "badspec", a missing
// table is "notable", a fail-stopped storage layer is "degraded",
// anything else the database refused is "conflict".
func dmlFail(c *conn, err error) {
	switch {
	case errors.Is(err, storage.ErrAborted):
		c.errf(codeAborted, "%v", err)
	case errors.Is(err, storage.ErrDegraded):
		c.errf(codeDegraded, "%v", err)
	case errors.Is(err, wiredb.ErrSpec):
		c.errf(codeBadSpec, "%v", err)
	case errors.Is(err, wiredb.ErrNoTable):
		c.errf(codeNoTable, "%v", err)
	default:
		c.errf(codeConflict, "%v", err)
	}
}

// parsePayload classifies a JSON payload problem: syntactically broken
// JSON is "badjson", a well-formed document that doesn't fit the spec
// is "badspec". Returns false after replying when the payload is bad.
func parsePayload(c *conn, data []byte, parse func() error) bool {
	if !json.Valid(data) {
		c.errf(codeBadJSON, "payload is not valid JSON")
		return false
	}
	if err := parse(); err != nil {
		c.errf(codeBadSpec, "%v", err)
		return false
	}
	return true
}

func handleTable(c *conn, req *request) bool {
	var schema *storage.Schema
	ok := parsePayload(c, []byte(req.tail), func() (err error) {
		schema, err = wiredb.ParseTableSpec([]byte(req.tail))
		return err
	})
	if !ok {
		return true
	}
	// No pre-check: CreateTable's own locked dup check is the truth,
	// so a create race still classifies as dup.
	if err := c.srv.eng.DB.CreateTable(schema); err != nil {
		if errors.Is(err, storage.ErrExists) {
			c.errf(codeDup, "%v", err)
		} else {
			c.errf(codeInternal, "%v", err)
		}
		return true
	}
	c.reply("OK")
	return true
}

// replyBuilt replies with a line built in c.rbuf, and keeps the buffer
// for the next unless the line outgrew maxRecycledLine.
func (c *conn) replyBuilt(line []byte) {
	// reply copies the line out, and nothing else holds or writes it:
	// viewing it as a string saves a second copy of a large reply.
	c.reply(unsafe.String(unsafe.SliceData(line), len(line)))
	c.rbuf = nil
	if len(line) <= maxRecycledLine {
		c.rbuf = line
	}
}

func handleInsert(c *conn, req *request) bool {
	// The payload is only read during the call: viewing the request's
	// tail as bytes saves a copy of it.
	id, err := wiredb.InsertJSON(c.srv.eng.DB, req.args[0], unsafe.Slice(unsafe.StringData(req.tail), len(req.tail)))
	if errors.Is(err, wiredb.ErrJSON) {
		c.errf(codeBadJSON, "payload is not valid JSON")
		return true
	}
	if err != nil {
		dmlFail(c, err)
		return true
	}
	if !c.flushed() {
		return true
	}
	c.replyBuilt(strconv.AppendUint(append(c.rbuf[:0], "OK "...), uint64(id), 10))
	return true
}

// decodeMutation strictly decodes an UPDATE/DELETE payload. Strictness
// matters more here than anywhere: a misspelled "where" key silently
// ignored would turn a targeted mutation into a match-all one.
func decodeMutation(c *conn, tail string, into any) bool {
	return parsePayload(c, []byte(tail), func() error {
		dec := json.NewDecoder(strings.NewReader(tail))
		dec.DisallowUnknownFields()
		return dec.Decode(into)
	})
}

func handleUpdate(c *conn, req *request) bool {
	var spec struct {
		Where string         `json:"where,omitempty"`
		Set   map[string]any `json:"set"`
	}
	if !decodeMutation(c, req.tail, &spec) {
		return true
	}
	if len(spec.Set) == 0 {
		c.errf(codeBadSpec, "UPDATE needs a non-empty set clause")
		return true
	}
	n, err := wiredb.UpdateWhere(c.srv.eng.DB, req.args[0], spec.Where, spec.Set)
	if err != nil {
		dmlFail(c, err)
		return true
	}
	if !c.flushed() {
		return true
	}
	c.reply(fmt.Sprintf("OK %d", n))
	return true
}

func handleDelete(c *conn, req *request) bool {
	var spec struct {
		Where string `json:"where,omitempty"`
	}
	if !decodeMutation(c, req.tail, &spec) {
		return true
	}
	n, err := wiredb.DeleteWhere(c.srv.eng.DB, req.args[0], spec.Where)
	if err != nil {
		dmlFail(c, err)
		return true
	}
	if !c.flushed() {
		return true
	}
	c.reply(fmt.Sprintf("OK %d", n))
	return true
}

func handleSelect(c *conn, req *request) bool {
	var spec wiredb.QuerySpec
	if !parsePayload(c, []byte(req.tail), func() (err error) {
		spec, err = wiredb.ParseQuerySpec([]byte(req.tail))
		return err
	}) {
		return true
	}
	if spec.Table == "" {
		c.errf(codeBadSpec, "query spec needs a table")
		return true
	}
	if _, ok := c.srv.eng.DB.Table(spec.Table); !ok {
		c.errf(codeNoTable, "no table %q", spec.Table)
		return true
	}
	q, err := spec.Build()
	if err != nil {
		c.errf(codeBadSpec, "%v", err)
		return true
	}
	if c.qs == nil {
		c.qs = new(query.Scratch)
	}
	// The result lives in the connection's scratch until its next SELECT,
	// and is encoded before this handler returns.
	res, err := q.RunIn(c.srv.eng.DB, c.qs)
	if err != nil {
		c.errf(codeBadSpec, "%v", err)
		return true
	}
	line, err := wiredb.AppendResult(append(c.rbuf[:0], "OK "...), res)
	if err != nil {
		c.errf(codeInternal, "%v", err)
		return true
	}
	c.replyBuilt(line)
	return true
}

// handleRegister answers TRIG, WATCH and PATTERN, whose registrations
// are engine-global and outlive the connection; core.Register decodes
// the spec by its kind.
func handleRegister(c *conn, req *request, kind string) bool {
	if !json.Valid([]byte(req.tail)) {
		c.errf(codeBadJSON, "payload is not valid JSON")
		return true
	}
	switch err := c.srv.eng.Register(kind, req.args[0], []byte(req.tail)); {
	case err == nil:
		c.reply("OK")
	case errors.Is(err, core.ErrExists):
		c.errf(codeDup, "%v", err)
	case errors.Is(err, wiredb.ErrNoTable):
		c.errf(codeNoTable, "%v", err)
	default:
		c.errf(codeBadSpec, "%v", err)
	}
	return true
}

// handleUnregister answers UNTRIG, UNWATCH and UNPATTERN; an unknown
// name gets its verb's code.
func handleUnregister(c *conn, req *request, kind, missing string) bool {
	if err := c.srv.eng.Unregister(kind, req.args[0]); err != nil {
		c.errf(missing, "%v", err)
		return true
	}
	c.reply("OK")
	return true
}

// handleCompact force-seals pending columnar history into segments and
// reports per-table segment statistics. With no table argument every
// tracked table compacts. It never mutates durable state (segments are
// a rebuildable cache over the WAL), so it is available on followers.
func handleCompact(c *conn, req *request) bool {
	table := ""
	format := ""
	for _, f := range strings.Fields(req.tail) {
		switch {
		case f == "format=json":
			format = "json"
		case table == "":
			table = f
		default:
			c.errf(codeBadArgs, "unexpected argument %q (usage: COMPACT [table] [format=json])", f)
			return true
		}
	}
	if table != "" {
		if _, ok := c.srv.eng.DB.Table(table); !ok {
			c.errf(codeNoTable, "no table %q", table)
			return true
		}
	}
	stats, err := c.srv.eng.Compact(table)
	if err != nil {
		c.errf(codeBadSpec, "%v", err)
		return true
	}
	if format == "json" {
		data, err := json.Marshal(stats)
		if err != nil {
			c.errf(codeInternal, "%v", err)
			return true
		}
		c.reply("OK " + string(data))
		return true
	}
	var segs, rows, bytes int
	for _, s := range stats {
		segs += s.Segments
		rows += s.SealedRows
		bytes += s.MemBytes
	}
	c.reply(fmt.Sprintf("OK tables=%d segments=%d rows=%d bytes=%d", len(stats), segs, rows, bytes))
	return true
}
