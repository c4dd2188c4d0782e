// Package gateway bridges web clients to an eventdb server: HTTP POST
// for the request/reply verbs (publish, select, stats) and WebSocket
// for the push plane (subscriptions), with bearer-token auth in front.
// It is the million-connection story's edge tier — browsers and
// curl-class clients speak commodity HTTP/WebSocket to the gateway,
// and the gateway speaks the negotiated binary frame protocol
// (HELLO 3) to the backend over a small number of multiplexed TCP
// connections.
//
//	POST /v1/pub     body: one event JSON object, or an array of them
//	POST /v1/select  body: a QuerySpec JSON object → result JSON
//	GET  /v1/stats   → connection stats JSON (the shared backend conn)
//	GET  /v1/qstats?queue=<name> → queue stats JSON
//	GET  /v1/sub?id=<id>&filter=<expr> → WebSocket: event JSON per message
//	GET  /healthz    → liveness + backend reachability (no auth)
//	GET  /readyz     → readiness for traffic (no auth): 200 only when
//	                   the backend is reachable, a writable leader, and
//	                   not degraded; 503 otherwise, with the backend's
//	                   health snapshot as the body either way
//
// Every endpoint except /healthz and /readyz requires "Authorization:
// Bearer <token>" when Config.Tokens is non-empty.
package gateway

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"eventdb/client"
	"eventdb/internal/event"
	"eventdb/internal/ws"
)

// Config configures a Gateway.
type Config struct {
	// Backend is the eventdb server address ("host:port").
	Backend string
	// Tokens are the accepted bearer tokens. Empty means no auth —
	// every request is allowed (development mode).
	Tokens []string
	// SubBuffer sizes each WebSocket subscription's client-side event
	// buffer (default 256). A browser that cannot keep up loses pushes
	// rather than stalling the backend connection.
	SubBuffer int
	// MaxBody caps request bodies (default 16 MiB, matching the
	// backend's frame limit).
	MaxBody int64
	// Dial overrides how backend connections are made (testing).
	Dial func() (*client.Conn, error)
}

// Gateway is an http.Handler bridging HTTP/WebSocket to one eventdb
// backend.
type Gateway struct {
	cfg    Config
	tokens [][32]byte // sha256 of each accepted token
	mux    *http.ServeMux

	mu     sync.Mutex
	shared *client.Conn // lazily dialed request/reply connection
}

// New builds a Gateway.
func New(cfg Config) *Gateway {
	if cfg.SubBuffer <= 0 {
		cfg.SubBuffer = 256
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 16 << 20
	}
	if cfg.Dial == nil {
		backend := cfg.Backend
		sub := cfg.SubBuffer
		cfg.Dial = func() (*client.Conn, error) {
			return client.Dial(backend, client.WithBinary(), client.WithSubBuffer(sub))
		}
	}
	g := &Gateway{cfg: cfg}
	for _, t := range cfg.Tokens {
		g.tokens = append(g.tokens, sha256.Sum256([]byte(t)))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/readyz", g.handleReadyz)
	mux.HandleFunc("/v1/pub", g.auth(g.handlePub))
	mux.HandleFunc("/v1/select", g.auth(g.handleSelect))
	mux.HandleFunc("/v1/stats", g.auth(g.handleStats))
	mux.HandleFunc("/v1/qstats", g.auth(g.handleQStats))
	mux.HandleFunc("/v1/sub", g.auth(g.handleSub))
	g.mux = mux
	return g
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Close drops the shared backend connection.
func (g *Gateway) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.shared != nil {
		g.shared.Close()
		g.shared = nil
	}
	return nil
}

// --- auth -------------------------------------------------------------

// auth wraps a handler with bearer-token verification. Tokens compare
// in constant time over a digest, so neither the comparison nor the
// token length leaks timing.
func (g *Gateway) auth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if len(g.tokens) == 0 {
			next(w, r)
			return
		}
		raw := r.Header.Get("Authorization")
		token, ok := strings.CutPrefix(raw, "Bearer ")
		if !ok {
			// WebSocket clients (browsers) cannot set headers on the
			// upgrade request; accept the token as a query parameter
			// there.
			token = r.URL.Query().Get("token")
		}
		if token == "" || !g.tokenOK(token) {
			w.Header().Set("WWW-Authenticate", `Bearer realm="eventdb"`)
			httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		next(w, r)
	}
}

func (g *Gateway) tokenOK(token string) bool {
	digest := sha256.Sum256([]byte(token))
	ok := false
	for i := range g.tokens {
		// No early exit: every candidate is compared so match position
		// does not leak either.
		if subtle.ConstantTimeCompare(digest[:], g.tokens[i][:]) == 1 {
			ok = true
		}
	}
	return ok
}

// --- backend connection pool (of one) ---------------------------------

// conn returns the shared request/reply backend connection, dialing it
// on first use and redialing after a failure.
func (g *Gateway) conn() (*client.Conn, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.shared != nil && g.shared.Err() == nil {
		return g.shared, nil
	}
	if g.shared != nil {
		g.shared.Close()
		g.shared = nil
	}
	c, err := g.cfg.Dial()
	if err != nil {
		return nil, err
	}
	g.shared = c
	return c, nil
}

// --- plumbing ---------------------------------------------------------

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// backendError maps a backend refusal onto an HTTP status using the
// server's stable error codes; transport failures become 502.
func backendError(w http.ResponseWriter, err error) {
	var serr *client.Error
	if !errors.As(err, &serr) {
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	status := http.StatusBadRequest
	switch serr.Code {
	case "badargs", "badjson", "badspec", "unknown":
		status = http.StatusBadRequest
	case "notable", "noqueue", "nosub", "notrig", "nowatch", "nopattern", "noreceipt":
		status = http.StatusNotFound
	case "dup", "conflict", "aborted":
		status = http.StatusConflict
	case "toobig":
		status = http.StatusRequestEntityTooLarge
	case "limit":
		status = http.StatusTooManyRequests
	case "readonly":
		status = http.StatusForbidden
	case "degraded":
		// The storage layer fail-stopped; the node serves reads but
		// refuses writes until an operator RECOVER. Retryable elsewhere.
		status = http.StatusServiceUnavailable
	case "notdurable":
		status = http.StatusPreconditionFailed
	case "internal":
		status = http.StatusBadGateway
	}
	httpError(w, status, serr.Error())
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// --- handlers ---------------------------------------------------------

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	backend := "up"
	if c, err := g.conn(); err != nil {
		backend = "down"
	} else if err := c.Ping(); err != nil {
		backend = "down"
	}
	writeJSON(w, http.StatusOK, []byte(fmt.Sprintf(`{"ok":true,"backend":%q}`, backend)))
}

// handleReadyz is the load-balancer readiness probe: 200 only when the
// backend answers HEALTH, is a writable leader, and is not degraded —
// i.e. this gateway can usefully take writes right now. Everything
// else is 503 so traffic drains to a healthy peer. Unlike /healthz
// (liveness: "the process is up"), readiness flips during failover and
// degraded mode by design. The body is the backend's health snapshot
// so operators see *why* from the probe itself.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	c, err := g.conn()
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "backend unavailable: "+err.Error())
		return
	}
	body, err := c.HealthJSON()
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "backend health: "+err.Error())
		return
	}
	var h client.Health
	if err := json.Unmarshal(body, &h); err != nil {
		httpError(w, http.StatusServiceUnavailable, "bad health snapshot: "+err.Error())
		return
	}
	status := http.StatusOK
	if h.Role != "leader" || h.Degraded {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// handlePub accepts one event object or an array of events.
func (g *Gateway) handlePub(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, g.cfg.MaxBody+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	if int64(len(body)) > g.cfg.MaxBody {
		httpError(w, http.StatusRequestEntityTooLarge, "request body too large")
		return
	}
	c, err := g.conn()
	if err != nil {
		httpError(w, http.StatusBadGateway, "backend unavailable: "+err.Error())
		return
	}
	trimmed := strings.TrimSpace(string(body))
	var accepted int
	if strings.HasPrefix(trimmed, "[") {
		var raws []json.RawMessage
		if err := json.Unmarshal(body, &raws); err != nil {
			httpError(w, http.StatusBadRequest, "bad event array: "+err.Error())
			return
		}
		evs := make([]*event.Event, len(raws))
		for i, raw := range raws {
			ev, err := event.UnmarshalJSONEvent(raw)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("event %d: %v", i, err))
				return
			}
			evs[i] = ev
		}
		accepted, err = c.PublishBatch(evs)
	} else {
		if !json.Valid(body) {
			httpError(w, http.StatusBadRequest, "bad event json")
			return
		}
		accepted, err = c.PublishRaw(body)
	}
	if err != nil {
		backendError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, []byte(fmt.Sprintf(`{"accepted":%d}`, accepted)))
}

func (g *Gateway) handleSelect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, g.cfg.MaxBody+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	if int64(len(body)) > g.cfg.MaxBody {
		httpError(w, http.StatusRequestEntityTooLarge, "request body too large")
		return
	}
	c, err := g.conn()
	if err != nil {
		httpError(w, http.StatusBadGateway, "backend unavailable: "+err.Error())
		return
	}
	res, err := c.SelectRaw(body)
	if err != nil {
		var serr *client.Error
		if !errors.As(err, &serr) && strings.Contains(err.Error(), "bad query spec") {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		backendError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	c, err := g.conn()
	if err != nil {
		httpError(w, http.StatusBadGateway, "backend unavailable: "+err.Error())
		return
	}
	body, err := c.StatsJSON()
	if err != nil {
		backendError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (g *Gateway) handleQStats(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("queue")
	if name == "" {
		httpError(w, http.StatusBadRequest, "missing queue parameter")
		return
	}
	if strings.ContainsAny(name, " \r\n") {
		httpError(w, http.StatusBadRequest, "bad queue name")
		return
	}
	c, err := g.conn()
	if err != nil {
		httpError(w, http.StatusBadGateway, "backend unavailable: "+err.Error())
		return
	}
	body, err := c.QueueStatsJSON(name)
	if err != nil {
		backendError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleSub upgrades to WebSocket and streams subscription pushes, one
// event JSON object per text message. Each subscriber gets a dedicated
// backend connection: subscriptions are connection-scoped server-side,
// and one slow browser must not interleave with another's stream.
//
// The backend subscription is registered before the upgrade is
// answered, so it is live when the client sees the 101: an event
// published right after the handshake returns is delivered. A refusal
// (backend down, bad filter) is therefore a plain HTTP
// status, mapped like every other endpoint's, not a WebSocket close.
func (g *Gateway) handleSub(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		id = "ws"
	}
	filter := r.URL.Query().Get("filter")
	if strings.ContainsAny(id, " \r\n") || strings.ContainsAny(filter, "\r\n") {
		httpError(w, http.StatusBadRequest, "bad id or filter")
		return
	}
	if r.Method != http.MethodGet || !ws.IsUpgrade(r) {
		ws.Accept(w, r) // not an upgrade: Accept answers with the reason
		return
	}
	bc, err := g.cfg.Dial()
	if err != nil {
		httpError(w, http.StatusBadGateway, "backend unavailable: "+err.Error())
		return
	}
	defer bc.Close()
	sub, err := bc.Subscribe(id, filter, g.cfg.SubBuffer)
	if err != nil {
		backendError(w, err)
		return
	}
	wc, err := ws.Accept(w, r)
	if err != nil {
		return // Accept already answered
	}
	defer wc.Close()
	// Reader goroutine: absorbs pings (answered inside ReadMessage) and
	// detects the peer's close/disconnect, unblocking the pump below by
	// closing the backend connection.
	clientGone := make(chan struct{})
	go func() {
		defer close(clientGone)
		for {
			if _, _, err := wc.ReadMessage(); err != nil {
				return
			}
			// Inbound data messages have no meaning on a subscription
			// stream; tolerate and discard them.
		}
	}()
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				wc.WriteClose(ws.CloseGoingAway, "backend connection lost")
				return
			}
			data, err := event.MarshalJSONEvent(ev)
			if err != nil {
				continue
			}
			if err := wc.WriteMessage(ws.OpText, data); err != nil {
				return
			}
		case <-clientGone:
			return
		}
	}
}
