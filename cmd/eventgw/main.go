// Command eventgw is the HTTP/WebSocket gateway in front of an eventdb
// server: the edge tier of the million-connection plane. Browsers and
// curl-class clients speak commodity HTTP POST (publish, select,
// stats) and WebSocket (subscriptions) to the gateway; the gateway
// speaks the negotiated binary frame protocol (HELLO 3, PROTOCOL.md)
// to the backend.
//
// Usage:
//
//	eventgw [-addr host:port] [-backend host:port]
//	        [-token t]... [-token-file path] [-sub-buffer n]
//
// Endpoints (see internal/gateway):
//
//	POST /v1/pub     publish one event object or an array
//	POST /v1/select  one-shot query (QuerySpec JSON body)
//	GET  /v1/stats   backend connection stats (JSON)
//	GET  /v1/qstats?queue=<name> durable queue stats (JSON)
//	GET  /v1/sub?id=<id>&filter=<expr> WebSocket event stream
//	GET  /healthz    liveness (unauthenticated)
//
// With one or more -token flags (or a -token-file of one token per
// line), every endpoint except /healthz requires "Authorization:
// Bearer <token>"; WebSocket clients that cannot set headers may pass
// ?token=<token> instead. Without tokens the gateway is open —
// development use only.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"

	"eventdb/internal/gateway"
)

type tokenFlags []string

func (t *tokenFlags) String() string { return fmt.Sprintf("%d tokens", len(*t)) }

// Set implements flag.Value.
func (t *tokenFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	backend := flag.String("backend", "127.0.0.1:7070", "eventdb server address")
	subBuffer := flag.Int("sub-buffer", 256, "per-WebSocket event buffer")
	tokenFile := flag.String("token-file", "", "file of accepted bearer tokens, one per line")
	var tokens tokenFlags
	flag.Var(&tokens, "token", "accepted bearer token (repeatable)")
	flag.Parse()

	if *tokenFile != "" {
		more, err := readTokens(*tokenFile)
		if err != nil {
			log.Fatalf("read -token-file: %v", err)
		}
		tokens = append(tokens, more...)
	}
	gw := gateway.New(gateway.Config{
		Backend:   *backend,
		Tokens:    tokens,
		SubBuffer: *subBuffer,
	})
	defer gw.Close()
	mode := "open (no auth)"
	if len(tokens) > 0 {
		mode = fmt.Sprintf("bearer auth (%d tokens)", len(tokens))
	}
	fmt.Printf("eventgw listening on %s → backend %s, %s\n", *addr, *backend, mode)
	log.Fatal(http.ListenAndServe(*addr, gw))
}

// readTokens reads a -token-file: one token a line, trimmed of white
// space (a CRLF's CR too); blank lines hold none.
func readTokens(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	var tokens []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			tokens = append(tokens, line)
		}
	}
	return tokens, err
}
