package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzBodyBytes bounds the fuzzed request bodies, so a decodable request
// stays a handful of short reads and each input costs one small device batch.
const fuzzBodyBytes = 4 << 10

// FuzzAlignRequest drives arbitrary bodies through POST /align: JSON decode,
// the schema/size/alphabet admission gate and, for well-formed requests, the
// service itself. The seed corpus is in testdata/fuzz/FuzzAlignRequest.
// Properties:
//   - the handler never panics;
//   - every response is a JSON body with status 200, 400, 429 or 503, plus
//     504 when the request set its own timeout_ms;
//   - a body that does not decode as an AlignRequest gets a 400;
//   - a decoded request holding any read byte outside ACGTacgt gets a 400;
//   - a 200 answers every pair of the request.
func FuzzAlignRequest(f *testing.F) {
	s, err := New(Config{Devices: 1, SoftwareWorkers: 1, MaxPairsPerRequest: 4, MaxBodyBytes: fuzzBodyBytes})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Drain() })
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/align", bytes.NewReader(body)))

		var req AlignRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		decoded := dec.Decode(&req) == nil

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		case http.StatusGatewayTimeout:
			if !decoded || req.TimeoutMS <= 0 {
				t.Fatalf("504 for a request without its own timeout: %q", body)
			}
		default:
			t.Fatalf("status %d for %q", rec.Code, body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("status %d with Content-Type %q", rec.Code, ct)
		}
		if rec.Code != http.StatusOK && rec.Code != http.StatusGatewayTimeout {
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("status %d with malformed error body %q (%v)", rec.Code, rec.Body.Bytes(), err)
			}
		}
		if !decoded {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("undecodable body %q answered %d", body, rec.Code)
			}
			return
		}
		for _, p := range req.Pairs {
			if hasForeignBase(p.A) || hasForeignBase(p.B) {
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("read outside ACGTacgt answered %d: %q", rec.Code, body)
				}
				return
			}
		}
		if rec.Code == http.StatusOK {
			var ar AlignResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
				t.Fatalf("200 with malformed body %q: %v", rec.Body.Bytes(), err)
			}
			if len(ar.Results) != len(req.Pairs) {
				t.Fatalf("200 with %d results for %d pairs", len(ar.Results), len(req.Pairs))
			}
		}
	})
}

// hasForeignBase reports whether read holds a byte outside ACGTacgt. It is
// written out here, independently of seqio, so the fuzz target checks the
// admission gate against the documented alphabet rather than against itself.
func hasForeignBase(read string) bool {
	for i := 0; i < len(read); i++ {
		if strings.IndexByte("ACGTacgt", read[i]) < 0 {
			return true
		}
	}
	return false
}
