package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"
	"unsafe"

	"eventdb/internal/core"
	"eventdb/internal/storage"
	"eventdb/internal/trigger"
	"eventdb/internal/wiredb"
)

// Handlers for the database plane: the paper's §2.2.a capture
// mechanisms made reachable over one connection. TABLE declares state,
// INSERT/UPDATE/DELETE mutate it through the storage engine so
// BEFORE/AFTER triggers fire (capture path i), SELECT reads it back,
// TRIG registers the triggers themselves, and WATCH schedules
// repeatedly-evaluated queries whose result-set diffs become events
// (capture path iii). Captured events enter the same ingest path as
// PUB, so they fan out to every SUB, CQ and QSUB on any connection.
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

func handleInsert(c *conn, req *request) bool {
	var values map[string]any
	if !parsePayload(c, []byte(req.tail), func() error {
		return json.Unmarshal([]byte(req.tail), &values)
	}) {
		return true
	}
	id, err := wiredb.InsertRow(c.srv.eng.DB, req.args[0], values)
	if err != nil {
		dmlFail(c, err)
		return true
	}
	if !c.flushed() {
		return true
	}
	c.reply(fmt.Sprintf("OK %d", id))
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
	if _, ok := c.srv.eng.DB.Table(spec.Table); !ok {
		c.errf(codeNoTable, "no table %q", spec.Table)
		return true
	}
	q, err := spec.Build()
	if err != nil {
		c.errf(codeBadSpec, "%v", err)
		return true
	}
	res, err := q.Run(c.srv.eng.DB)
	if err != nil {
		c.errf(codeBadSpec, "%v", err)
		return true
	}
	line, err := wiredb.AppendResult([]byte("OK "), res)
	if err != nil {
		c.errf(codeInternal, "%v", err)
		return true
	}
	// reply copies the line out, and nothing else holds or writes it:
	// viewing it as a string saves a second copy of a large reply.
	c.reply(unsafe.String(unsafe.SliceData(line), len(line)))
	return true
}

func handleTrig(c *conn, req *request) bool {
	name := req.args[0]
	var spec wiredb.TriggerSpec
	if !parsePayload(c, []byte(req.tail), func() (err error) {
		spec, err = wiredb.ParseTriggerSpec([]byte(req.tail))
		return err
	}) {
		return true
	}
	def, err := spec.Def(name)
	if err != nil {
		c.errf(codeBadSpec, "%v", err)
		return true
	}
	if _, ok := c.srv.eng.DB.Table(def.Table); !ok {
		c.errf(codeNoTable, "no table %q", def.Table)
		return true
	}
	// Triggers are engine-global, like QSUB queue bindings: the capture
	// they establish outlives the registering connection.
	if _, err := c.srv.eng.Triggers.Register(def); err != nil {
		if errors.Is(err, trigger.ErrExists) {
			c.errf(codeDup, "%v", err)
		} else {
			// Register also compiles the WHEN predicate.
			c.errf(codeBadSpec, "%v", err)
		}
		return true
	}
	c.reply("OK")
	return true
}

func handleUntrig(c *conn, req *request) bool {
	if err := c.srv.eng.Triggers.Drop(req.args[0]); err != nil {
		c.errf(codeNoTrigger, "%v", err)
		return true
	}
	c.reply("OK")
	return true
}

func handleWatch(c *conn, req *request) bool {
	name := req.args[0]
	var spec wiredb.WatchSpec
	if !parsePayload(c, []byte(req.tail), func() (err error) {
		spec, err = wiredb.ParseWatchSpec([]byte(req.tail))
		return err
	}) {
		return true
	}
	if _, ok := c.srv.eng.DB.Table(spec.Query.Table); !ok {
		c.errf(codeNoTable, "no table %q", spec.Query.Table)
		return true
	}
	q, err := spec.Query.Build()
	if err != nil {
		c.errf(codeBadSpec, "%v", err)
		return true
	}
	interval := c.srv.cfg.WatchInterval
	if spec.IntervalMS > 0 {
		interval = time.Duration(spec.IntervalMS) * time.Millisecond
	}
	// Watches are engine-global and survive the connection; the diff
	// events they capture fan out through the shared ingest path.
	if err := c.srv.eng.StartWatch(name, q, interval, spec.Key...); err != nil {
		if errors.Is(err, core.ErrWatchExists) {
			c.errf(codeDup, "%v", err)
		} else {
			c.errf(codeBadSpec, "%v", err)
		}
		return true
	}
	c.reply("OK")
	return true
}

func handleUnwatch(c *conn, req *request) bool {
	if err := c.srv.eng.StopWatch(req.args[0]); err != nil {
		c.errf(codeNoWatch, "%v", err)
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
