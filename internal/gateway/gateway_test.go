package gateway

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eventdb/internal/core"
	"eventdb/internal/event"
	"eventdb/internal/server"
	"eventdb/internal/storage"
	"eventdb/internal/val"
	"eventdb/internal/vfs"
	"eventdb/internal/ws"
)

// startStack spins up a real eventdb server plus a gateway in front of
// it, returning the gateway's HTTP base URL.
func startStack(t *testing.T, tokens []string) (*httptest.Server, *Gateway) {
	t.Helper()
	hs, gw, _ := startStackEngine(t, tokens)
	return hs, gw
}

// startStackEngine is startStack for tests that also drive the engine
// behind the server directly.
func startStackEngine(t *testing.T, tokens []string) (*httptest.Server, *Gateway, *core.Engine) {
	t.Helper()
	eng, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	gw := New(Config{Backend: srv.Addr(), Tokens: tokens})
	t.Cleanup(func() { gw.Close() })
	hs := httptest.NewServer(gw)
	t.Cleanup(hs.Close)
	return hs, gw, eng
}

func postJSON(t *testing.T, url, token, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

func TestPubAndStats(t *testing.T) {
	hs, _ := startStack(t, nil)
	resp, body := postJSON(t, hs.URL+"/v1/pub", "", `{"type":"tick","attrs":{"n":1}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pub: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("pub body %q: %v", body, err)
	}

	// Array form.
	resp, body = postJSON(t, hs.URL+"/v1/pub", "",
		`[{"type":"tick","attrs":{"n":2}},{"type":"tick","attrs":{"n":3}}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pub array: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil || out.Accepted != 2 {
		t.Fatalf("pub array body %q (err %v)", body, err)
	}

	resp, body = postJSON(t, hs.URL+"/v1/pub", "", `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json pub: %d %s", resp.StatusCode, body)
	}

	r2, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", r2.StatusCode)
	}
	var st map[string]any
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatalf("stats not json: %v", err)
	}
	if _, ok := st["sent"]; !ok {
		t.Fatalf("stats missing sent: %v", st)
	}
}

func TestSelectRoundTrip(t *testing.T) {
	hs, _ := startStack(t, nil)
	// No tables exist; a select against a missing table maps to 404.
	resp, body := postJSON(t, hs.URL+"/v1/select", "", `{"table":"missing"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("select missing table: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "notable") {
		t.Fatalf("error body lost the code: %s", body)
	}
	// Malformed spec JSON is rejected client-side with 400.
	resp, body = postJSON(t, hs.URL+"/v1/select", "", `{oops`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d %s", resp.StatusCode, body)
	}
}

func TestQStatsNotFound(t *testing.T) {
	hs, _ := startStack(t, nil)
	resp, err := http.Get(hs.URL + "/v1/qstats?queue=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("qstats on missing queue: %d", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/v1/qstats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("qstats without queue: %d", resp.StatusCode)
	}
}

func TestAuth(t *testing.T) {
	hs, _ := startStack(t, []string{"sekrit", "other"})
	// No token → 401 with a challenge.
	resp, _ := postJSON(t, hs.URL+"/v1/pub", "", `{"type":"t","attrs":{}}`)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token: %d", resp.StatusCode)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatal("401 without WWW-Authenticate")
	}
	// Wrong token → 401.
	resp, _ = postJSON(t, hs.URL+"/v1/pub", "wrong", `{"type":"t","attrs":{}}`)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token: %d", resp.StatusCode)
	}
	// Either accepted token → 200.
	for _, tok := range []string{"sekrit", "other"} {
		resp, body := postJSON(t, hs.URL+"/v1/pub", tok, `{"type":"t","attrs":{}}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("token %q: %d %s", tok, resp.StatusCode, body)
		}
	}
	// /healthz stays open.
	r, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", r.StatusCode)
	}
}

func TestWebSocketSubscription(t *testing.T) {
	hs, _ := startStack(t, []string{"sekrit"})
	base := "ws" + strings.TrimPrefix(hs.URL, "http")

	// Upgrade without a token is refused before the upgrade completes.
	if _, err := ws.Dial(base+"/v1/sub?id=s1", nil); err == nil {
		t.Fatal("unauthenticated upgrade succeeded")
	}

	// Browsers cannot set Authorization on upgrades; ?token= works.
	wc, err := ws.Dial(base+"/v1/sub?id=s1&filter="+escape("n > 1")+"&token=sekrit", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	// Publish through the HTTP plane; only the matching event arrives.
	resp, body := postJSON(t, hs.URL+"/v1/pub", "sekrit",
		`[{"type":"tick","attrs":{"n":1}},{"type":"tick","attrs":{"n":5}}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pub: %d %s", resp.StatusCode, body)
	}

	wc.NetConn().SetReadDeadline(time.Now().Add(5 * time.Second))
	op, p, err := wc.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != ws.OpText {
		t.Fatalf("opcode %d", op)
	}
	var ev struct {
		Type  string         `json:"type"`
		Attrs map[string]any `json:"attrs"`
	}
	if err := json.Unmarshal(p, &ev); err != nil {
		t.Fatalf("push not json: %v (%q)", err, p)
	}
	if ev.Type != "tick" || ev.Attrs["n"] != float64(5) {
		t.Fatalf("wrong event pushed: %s", p)
	}
}

func TestWebSocketBadFilter(t *testing.T) {
	hs, _ := startStack(t, nil)
	base := "ws" + strings.TrimPrefix(hs.URL, "http")
	// The subscription is registered before the upgrade is answered, so
	// the backend's refusal is the HTTP status of the handshake.
	_, err := ws.Dial(base+"/v1/sub?id=s1&filter="+escape("n >>> !"), nil)
	if err == nil || !strings.Contains(err.Error(), " 400 ") {
		t.Fatalf("bad filter: handshake error %v, want a 400 refusal", err)
	}
	// A request that is no upgrade at all never reaches the backend.
	resp, err := http.Get(hs.URL + "/v1/sub?id=s1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("plain GET on /v1/sub: %d, want 400", resp.StatusCode)
	}
}

// TestWebSocketSubscribedAtHandshake is the regression test for the
// upgrade-before-subscribe race: the subscription must be live when the
// handshake returns, so an event published the very next moment — here
// straight into the engine, with no round trip to hide behind — is
// pushed.
func TestWebSocketSubscribedAtHandshake(t *testing.T) {
	hs, _, eng := startStackEngine(t, nil)
	wc, err := ws.Dial("ws"+strings.TrimPrefix(hs.URL, "http")+"/v1/sub?id=s1", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	if err := eng.Ingest(event.New("tick", map[string]any{"n": 1})); err != nil {
		t.Fatal(err)
	}
	wc.NetConn().SetReadDeadline(time.Now().Add(5 * time.Second))
	_, p, err := wc.ReadMessage()
	if err != nil {
		t.Fatalf("event published right after the handshake was not pushed: %v", err)
	}
	if !strings.Contains(string(p), `"tick"`) {
		t.Fatalf("pushed %s", p)
	}
}

// escape is a minimal query-escaper for test filters.
func escape(s string) string {
	r := strings.NewReplacer(" ", "%20", ">", "%3E", "!", "%21")
	return r.Replace(s)
}

// TestReadyz drives the readiness probe through its three answers: 200
// on a healthy writable leader, 503 while the storage layer is
// degraded, and 503 on a read-only follower — with the backend's
// health snapshot as the body every time.
func TestReadyz(t *testing.T) {
	fsys := vfs.NewFaulty(nil)
	eng, err := core.Open(core.Config{Dir: t.TempDir(), SyncEvery: 1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv, err := server.StartConfig(eng, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	gw := New(Config{Backend: srv.Addr()})
	t.Cleanup(func() { gw.Close() })
	hs := httptest.NewServer(gw)
	t.Cleanup(hs.Close)

	ready := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("readyz body: %v", err)
		}
		return resp.StatusCode, body
	}

	if code, body := ready(); code != http.StatusOK || body["role"] != "leader" {
		t.Fatalf("healthy leader: %d %v", code, body)
	}

	// Fail-stop the storage layer: readiness must flip to 503 while
	// liveness (/healthz) stays 200 — the process is up, just not ready.
	fsys.FailSyncsAfter(0, errors.New("injected EIO"))
	schema, err := storage.NewSchema("probe", []storage.Column{
		{Name: "id", Kind: val.KindInt, NotNull: true},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.DB.CreateTable(schema); err == nil {
		t.Fatal("create table on broken device unexpectedly succeeded")
	}
	if deg, _ := eng.Degraded(); !deg {
		t.Fatal("engine not degraded")
	}
	if code, body := ready(); code != http.StatusServiceUnavailable || body["degraded"] != true {
		t.Fatalf("degraded: %d %v", code, body)
	}
	r, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz during degraded: %d, want 200 (liveness, not readiness)", r.StatusCode)
	}

	fsys.Heal()
	if err := eng.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if code, _ := ready(); code != http.StatusOK {
		t.Fatalf("after recover: %d", code)
	}

	// A follower is alive but not ready for writes either.
	eng.SetReadOnly(true)
	if code, body := ready(); code != http.StatusServiceUnavailable || body["role"] != "follower" {
		t.Fatalf("follower: %d %v", code, body)
	}
}
