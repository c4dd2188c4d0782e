package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"eventdb/internal/wiredb"
)

// The database verbs: the client half of the paper's §2.2.a claim that
// events are captured from database state. CreateTable declares
// schema, Insert/Update/Delete mutate rows through the server's
// storage engine (so BEFORE triggers can veto and AFTER triggers
// capture change events that fan out to every subscriber), Select runs
// one-shot reads through the query planner, Trigger/DropTrigger manage
// the triggers themselves, and Watch/Unwatch schedule server-side
// repeatedly-evaluated queries whose result-set diffs arrive as
// "query.<name>.<added|removed|changed>" events on any matching
// subscription.

// TableSpec declares a table for CreateTable.
type TableSpec = wiredb.TableSpec

// ColumnSpec declares one column of a TableSpec.
type ColumnSpec = wiredb.ColumnSpec

// QuerySpec declares a one-shot Select or the query half of a
// WatchSpec.
type QuerySpec = wiredb.QuerySpec

// AggSpec is one aggregate output of a QuerySpec.
type AggSpec = wiredb.AggSpec

// OrderSpec is one sort key of a QuerySpec.
type OrderSpec = wiredb.OrderSpec

// JoinSpec is the join clause of a QuerySpec.
type JoinSpec = wiredb.JoinSpec

// TriggerSpec declares a trigger for Trigger.
type TriggerSpec = wiredb.TriggerSpec

// WatchSpec declares a watched query for Watch.
type WatchSpec = wiredb.WatchSpec

// Result is a materialized Select result. Values are JSON scalars with
// integral numbers below 2^53 folded to int64; times arrive as RFC 3339
// strings and bytes base64, as encoded by the wire. Select refuses an
// array or object cell, and skips a "Rows" like any unknown key.
type Result = wiredb.Result

// checkName rejects tokens that would break line framing.
func checkName(kind, name string) error {
	if name == "" || strings.ContainsAny(name, " \r\n") {
		return fmt.Errorf("client: bad %s %q", kind, name)
	}
	return nil
}

// jsonArg marshals a spec for the wire. encoding/json escapes newlines
// inside strings, so the payload is always a single line.
func jsonArg(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("client: encode spec: %w", err)
	}
	return string(data), nil
}

// CreateTable creates a table on the server.
func (c *Conn) CreateTable(spec TableSpec) error {
	arg, err := jsonArg(spec)
	if err != nil {
		return err
	}
	_, err = c.call("TABLE " + arg)
	return err
}

// Insert inserts one row of JSON-scalar values (column name → value)
// and returns its row ID. The server's commit path runs triggers: a
// BEFORE veto surfaces as an *Error with code "aborted".
func (c *Conn) Insert(table string, values map[string]any) (uint64, error) {
	if err := checkName("table", table); err != nil {
		return 0, err
	}
	arg, err := jsonArg(values)
	if err != nil {
		return 0, err
	}
	resp, err := c.call("INSERT " + table + " " + arg)
	if err != nil {
		return 0, err
	}
	id, err := strconv.ParseUint(resp, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("client: bad INSERT reply %q", resp)
	}
	return id, nil
}

// mutate runs UPDATE/DELETE and parses the affected-row count.
func (c *Conn) mutate(verb, table string, payload any) (int, error) {
	if err := checkName("table", table); err != nil {
		return 0, err
	}
	arg, err := jsonArg(payload)
	if err != nil {
		return 0, err
	}
	resp, err := c.call(verb + " " + table + " " + arg)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(resp)
	if err != nil {
		return 0, fmt.Errorf("client: bad %s reply %q", verb, resp)
	}
	return n, nil
}

// Update sets columns on every row matching the where predicate (all
// rows when empty), atomically, returning the affected count.
func (c *Conn) Update(table, where string, set map[string]any) (int, error) {
	return c.mutate("UPDATE", table, struct {
		Where string         `json:"where,omitempty"`
		Set   map[string]any `json:"set"`
	}{where, set})
}

// Delete removes every row matching the where predicate (all rows when
// empty), atomically, returning the affected count.
func (c *Conn) Delete(table, where string) (int, error) {
	return c.mutate("DELETE", table, struct {
		Where string `json:"where,omitempty"`
	}{where})
}

// Select runs a one-shot query through the server's planner.
func (c *Conn) Select(spec QuerySpec) (*Result, error) {
	arg, err := jsonArg(spec)
	if err != nil {
		return nil, err
	}
	resp, err := c.call("SELECT " + arg)
	if err != nil {
		return nil, err
	}
	return wiredb.ParseResult(resp)
}

// SelectRaw runs a one-shot query from its raw JSON spec and returns
// the server's raw JSON result undecoded — for proxies (the HTTP
// gateway) that forward both sides verbatim. The spec is compacted
// before sending so embedded newlines cannot break wire framing;
// validation is the server's.
func (c *Conn) SelectRaw(spec []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, spec); err != nil {
		return nil, fmt.Errorf("client: bad query spec: %w", err)
	}
	resp, err := c.call("SELECT " + buf.String())
	if err != nil {
		return nil, err
	}
	return []byte(resp), nil
}

// Trigger registers a named trigger on the server. Triggers are
// engine-global: they keep capturing after this connection closes, and
// their change events reach subscribers on every connection.
func (c *Conn) Trigger(name string, spec TriggerSpec) error {
	return c.named("TRIG", "trigger", name, spec)
}

// DropTrigger removes a trigger by name.
func (c *Conn) DropTrigger(name string) error { return c.named("UNTRIG", "trigger", name, nil) }

// Watch schedules a server-side watched query: the query is polled on
// an interval and result-set diffs are ingested as
// "query.<name>.<added|removed|changed>" events. Subscribe to
// "query.<name>." types to receive them. Like triggers, watches are
// engine-global until Unwatch.
func (c *Conn) Watch(name string, spec WatchSpec) error {
	return c.named("WATCH", "watch", name, spec)
}

// Unwatch stops a watched query.
func (c *Conn) Unwatch(name string) error { return c.named("UNWATCH", "watch", name, nil) }

// named sends a TRIG, WATCH or PATTERN verb or its UN-verb: the name,
// then the spec as JSON unless it is nil.
func (c *Conn) named(verb, kind, name string, spec any) error {
	if err := checkName(kind+" name", name); err != nil {
		return err
	}
	line := verb + " " + name
	if spec != nil {
		arg, err := jsonArg(spec)
		if err != nil {
			return err
		}
		line += " " + arg
	}
	_, err := c.call(line)
	return err
}
