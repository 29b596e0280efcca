package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
	}
	return resp.StatusCode
}

func post(t *testing.T, srv *httptest.Server, path, body string, out any) int {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPStatsAndHealth(t *testing.T) {
	svc := figure1Service(t, Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	post(t, srv, "/v1/query", `{"kind":"bool","query":`+jsonStr(q1)+`}`, nil)
	var st StatsResponse
	if code := get(t, srv, "/stats", &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st.Items != 4 || st.Sessions != 3 || st.Service.Evals != 1 {
		t.Fatalf("stats = %+v", st)
	}
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	svc := figure1Service(t, Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	boolOf := func(q string) string { return `{"kind":"bool","query":` + jsonStr(q) + `}` }
	for what, body := range map[string]string{
		"missing query": `{"kind":"bool"}`,
		"bad query":     boolOf("bogus("),
		"empty batch":   `{"requests": []}`,
		"bad k":         `{"kind":"topk","query":` + jsonStr(q1) + `,"k":"zzz"}`,
		"negative k":    `{"kind":"topk","query":` + jsonStr(q1) + `,"k":-1}`,
	} {
		if code := post(t, srv, "/v1/query", body, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d", what, code)
		}
	}
	// A parseable query that fails grounding (unknown relation) is a
	// server-classified failure (500), consistently for every kind; a parse
	// failure stays 400.
	bad := `P(_,_; a; b), X(a,_)`
	if code := post(t, srv, "/v1/query", boolOf(bad), nil); code != http.StatusInternalServerError {
		t.Fatalf("grounding error on a bool request: status %d", code)
	}
	if code := post(t, srv, "/v1/query", `{"kind":"topk","k":3,"query":`+jsonStr(bad)+`}`, nil); code != http.StatusInternalServerError {
		t.Fatalf("grounding error on a topk request: status %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/query", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
}
