package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// FuzzHTTPDocument throws arbitrary bytes at POST /v1/documents and checks
// the front-end's contract holds for every input: no panic, a status from
// the documented set, and a body that parses as JSON — a verdict set on
// 200, an error envelope otherwise.
func FuzzHTTPDocument(f *testing.F) {
	bundle := writeTestBundle(f)
	srv, err := New(Config{BundlePath: bundle, Shards: 2, QueueDepth: 8, MaxBodyBytes: 1 << 16})
	if err != nil {
		f.Fatal(err)
	}
	handler := srv.Handler()
	f.Cleanup(func() { srv.Close() })

	f.Add("<a><b>text</b></a>", "doc-1")
	f.Add("<a unterminated", "")
	f.Add("", "empty")
	f.Add("</>", "weird")
	f.Add("<a>"+strings.Repeat("deep ", 100)+"</a>", "wide")
	f.Add("\x00\xff<\x80>", "binary")

	f.Fuzz(func(t *testing.T, doc, id string) {
		req := httptest.NewRequest("POST", "/v1/documents", strings.NewReader(doc))
		if id != "" {
			q := req.URL.Query()
			q.Set("id", id)
			req.URL.RawQuery = q.Encode()
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK:
			var res DocumentResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("200 with unparseable body %q: %v", rec.Body.String(), err)
			}
			if len(res.Verdicts) != 3 {
				t.Fatalf("200 with %d verdicts, want 3", len(res.Verdicts))
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d with non-envelope body %q", rec.Code, rec.Body.String())
			}
		default:
			t.Fatalf("undocumented status %d for doc %q", rec.Code, doc)
		}
	})
}

// FuzzQueryValue holds handleDocument's allocation-free query scan to the
// url.ParseQuery(q).Get it replaces, for both parameters it reads: the
// first value wins, '+' and %XX unescape the same way, and pairs with a
// semicolon or a malformed escape are skipped the same way.
func FuzzQueryValue(f *testing.F) {
	for _, q := range []string{
		"",
		"id=doc-1&format=xml",
		"format=json&id=a+b%2Fc",
		"id=first&id=second&format=trace&format=xml",
		"id=%zz&id=ok&format=%4&format=json",
		"id=semi;colon&id=plain;&format=x;y&format=xml",
		"%69d=escaped-key&f%6Frmat=json",
		"&&id&format=&id=late",
		"id=%E2%82%AC+%2B&format=%",
		"=&id==x=&format=a=b",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		if len(q) > 1<<12 {
			return
		}
		want, _ := url.ParseQuery(q)
		for _, key := range []string{"id", "format"} {
			if got := queryValue(q, key); got != want.Get(key) {
				t.Fatalf("queryValue(%q, %q) = %q, url.ParseQuery says %q", q, key, got, want.Get(key))
			}
		}
	})
}

// TestQueryValueZeroAlloc pins the point of the scan: reading a request's
// unescaped id and format allocates nothing.
func TestQueryValueZeroAlloc(t *testing.T) {
	const q = "id=doc-17&format=xml"
	var id, format string
	allocs := testing.AllocsPerRun(100, func() {
		id, format = queryValue(q, "id"), queryValue(q, "format")
	})
	if id != "doc-17" || format != "xml" {
		t.Fatalf("queryValue: id %q, format %q", id, format)
	}
	if allocs != 0 {
		t.Errorf("queryValue: %v allocs/op, want 0", allocs)
	}
}
