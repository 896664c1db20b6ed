package whodunit_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"whodunit"
)

// FuzzServerQuery sends any path and query to a small finished server
// that retains windows 2 to 4 of 5. No request may fail the server
// (status 500 or above) or panic, a JSON answer must be valid JSON, and
// the same GET issued twice must get the same answer: retired windows
// are immutable, and a finished server's other endpoints no longer
// change. The seeds are the curl lines of README's Live monitoring.
func FuzzServerQuery(f *testing.F) {
	for _, seed := range []struct{ path, query string }{
		{"/report", "format=text"},
		{"/report", "window=live"},
		{"/windows", ""},
		{"/stream", ""},
		{"/diff", "a=3&b=4&format=text"},
		{"/healthz", ""},
	} {
		f.Add(seed.path, seed.query)
	}
	srv := whodunit.NewServer(serveApp(7), whodunit.ServeConfig{
		Window: 100 * whodunit.Millisecond, Threshold: -1, MaxWindows: 5, Retain: 3,
	})
	srv.Run()
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, path, query string) {
		serve := func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			req.URL = &url.URL{Path: path, RawQuery: query}
			req.RequestURI = req.URL.RequestURI()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		first, second := serve(), serve()
		if first.Code >= 500 {
			t.Fatalf("GET %q ? %q: status %d: %s", path, query, first.Code, first.Body)
		}
		ctype := first.Header().Get("Content-Type")
		if strings.HasPrefix(ctype, "application/json") && !json.Valid(first.Body.Bytes()) {
			t.Fatalf("GET %q ? %q: invalid JSON: %.300s", path, query, first.Body)
		}
		if first.Code != second.Code || ctype != second.Header().Get("Content-Type") ||
			!bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Fatalf("GET %q ? %q twice: %d %q then %d %q", path, query,
				first.Code, first.Body, second.Code, second.Body)
		}
	})
}
