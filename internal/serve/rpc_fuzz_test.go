package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// rpcCodes is rpc.go's documented error-code set.
var rpcCodes = map[int]bool{
	rpcParseError: true, rpcInvalidRequest: true, rpcMethodNotFound: true,
	rpcInvalidParams: true, rpcQueueFull: true, rpcNotFound: true, rpcInternal: true,
}

// FuzzRPC feeds arbitrary bodies to the JSON-RPC handler of a server
// that is already shut down, so job.submit validates but never
// enqueues a job. Nothing may panic; a well-formed notification (a
// body that is exactly one 2.0 request with a method and no id) gets
// 204 and no body; every other answer is exactly one JSON object with
// "jsonrpc":"2.0", an id, exactly one of result and error, and an
// error code from rpc.go's documented set — -32600 for a batch.
func FuzzRPC(f *testing.F) {
	for _, seed := range []string{
		`{"jsonrpc":"2.0","method":"job.submit","params":{"scenario":"uniform:n=16","protocol":"decay","seed":7},"id":1}`,
		`{"jsonrpc":"2.0","method":"job.submit","params":{"experiment":13,"scale":0.2},"id":"a"}`,
		`{"jsonrpc":"2.0","method":"job.status","params":{"id":"j1"},"id":2}`,
		`{"jsonrpc":"2.0","method":"job.cancel","params":{"id":"j1"},"id":3}`,
		`{"jsonrpc":"2.0","method":"job.list","id":4}`,
		`{"jsonrpc":"2.0","method":"cache.stats","id":null}`,
		`{"jsonrpc":"2.0","method":"job.nope","id":5}`,
		`{"jsonrpc":"2.0","method":"job.list"}`,        // notification
		`{"jsonrpc":"1.0","method":"job.list","id":6}`, // wrong version
		`{"jsonrpc":"2.0","id":7}`,                     // no method
		`{"jsonrpc":"2.0","method":"job.status","params":{"id":""},"id":8}`,
		`{"jsonrpc":"2.0","method":"job.submit","params":{"trials":-1},"id":9}`,
		`{"jsonrpc":"2.0","method":"job.submit","params":[1,2],"id":10}`,
		`{"jsonrpc":"2.0","method":"job.status","params":"j1","id":11}`,
		`{"jsonrpc":"2.0","method":`,                               // parse error
		`[{"jsonrpc":"2.0","method":"job.list","id":1}]`,           // batch
		`{"jsonrpc":"2.0","method":"job.list","id":1} trailing{`,   // trailing data
		"{\"jsonrpc\":\"2.0\",\"method\":\"job.list\",\"id\":1}\n", // trailing newline
		``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		s.handleRPC(w, httptest.NewRequest(http.MethodPost, "/rpc", bytes.NewReader(body)))

		var req rpcRequest
		notification := json.Unmarshal(body, &req) == nil &&
			req.Version == "2.0" && req.Method != "" && req.ID == nil
		if notification {
			if w.Code != http.StatusNoContent || w.Body.Len() != 0 {
				t.Fatalf("notification %q: status %d, body %q; want 204 and no body", body, w.Code, w.Body)
			}
			return
		}
		if w.Code != http.StatusOK {
			t.Fatalf("body %q: status %d, want 200", body, w.Code)
		}
		dec := json.NewDecoder(bytes.NewReader(w.Body.Bytes()))
		var resp map[string]json.RawMessage
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("body %q: answer %q is not a JSON object: %v", body, w.Body, err)
		}
		if _, err := dec.Token(); err != io.EOF {
			t.Fatalf("body %q: answer %q holds more than one JSON value", body, w.Body)
		}
		if v := string(resp["jsonrpc"]); v != `"2.0"` {
			t.Fatalf("body %q: answer %q has jsonrpc %s, want \"2.0\"", body, w.Body, v)
		}
		if _, ok := resp["id"]; !ok {
			t.Fatalf("body %q: answer %q has no id", body, w.Body)
		}
		result, hasResult := resp["result"]
		rawErr, hasErr := resp["error"]
		if hasResult == hasErr {
			t.Fatalf("body %q: answer %q must hold exactly one of result and error", body, w.Body)
		}
		if hasResult && string(result) == "null" {
			t.Fatalf("body %q: answer %q has a null result", body, w.Body)
		}
		if hasErr {
			var e rpcError
			if err := json.Unmarshal(rawErr, &e); err != nil || !rpcCodes[e.Code] {
				t.Fatalf("body %q: error %s is not one of the documented codes", body, rawErr)
			}
			if isBatch(body) && e.Code != rpcInvalidRequest {
				t.Fatalf("batch body %q: error %s, want code %d", body, rawErr, rpcInvalidRequest)
			}
		} else if isBatch(body) {
			t.Fatalf("batch body %q: answered with a result", body)
		}
	})
}
