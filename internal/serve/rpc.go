package serve

import (
	"encoding/json"
	"net/http"

	"sinrcast/internal/jobs"
)

// JSON-RPC 2.0 transport over POST /rpc — the programmatic twin of the
// REST routes for clients that prefer a single endpoint. Single
// requests only (no batches); notifications (absent id) get no
// response body.
//
// Methods:
//
//	job.submit   params: JobRequest          → {"id","state"}
//	job.status   params: {"id":"j1"}        → statusJSON
//	job.cancel   params: {"id":"j1"}        → statusJSON
//	job.list     params: none                → [statusJSON]
//	cache.stats  params: none                → {"cache","jobs"}
//
// Errors use the spec codes (-32700 parse, -32600 invalid request,
// -32601 method not found, -32602 invalid params) plus two server
// codes: -32001 queue full (backpressure — retry) and -32002 job not
// found.
const (
	rpcParseError     = -32700
	rpcInvalidRequest = -32600
	rpcMethodNotFound = -32601
	rpcInvalidParams  = -32602
	rpcQueueFull      = -32001
	rpcNotFound       = -32002
	rpcInternal       = -32000
)

type rpcRequest struct {
	Version string          `json:"jsonrpc"`
	Method  string          `json:"method"`
	Params  json.RawMessage `json:"params,omitempty"`
	ID      json.RawMessage `json:"id,omitempty"`
}

type rpcError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

type rpcResponse struct {
	Version string          `json:"jsonrpc"`
	Result  any             `json:"result,omitempty"`
	Error   *rpcError       `json:"error,omitempty"`
	ID      json.RawMessage `json:"id"`
}

func (s *Server) handleRPC(w http.ResponseWriter, r *http.Request) {
	var req rpcRequest
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&req); err != nil {
		writeRPC(w, rpcResponse{Version: "2.0", ID: nil,
			Error: &rpcError{Code: rpcParseError, Message: "parse error: " + err.Error()}})
		return
	}
	if req.Version != "2.0" || req.Method == "" {
		writeRPC(w, rpcResponse{Version: "2.0", ID: req.ID,
			Error: &rpcError{Code: rpcInvalidRequest, Message: `invalid request (need "jsonrpc":"2.0" and a method)`}})
		return
	}
	result, rerr := s.dispatchRPC(req.Method, req.Params)
	if req.ID == nil {
		w.WriteHeader(http.StatusNoContent) // notification
		return
	}
	resp := rpcResponse{Version: "2.0", ID: req.ID}
	if rerr != nil {
		resp.Error = rerr
	} else {
		resp.Result = result
	}
	writeRPC(w, resp)
}

func writeRPC(w http.ResponseWriter, resp rpcResponse) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

type rpcJobRef struct {
	ID string `json:"id"`
}

func (s *Server) dispatchRPC(method string, params json.RawMessage) (any, *rpcError) {
	switch method {
	case "job.submit":
		var jr JobRequest
		if err := unmarshalParams(params, &jr); err != nil {
			return nil, &rpcError{Code: rpcInvalidParams, Message: err.Error()}
		}
		h, err := s.submit(&jr)
		switch {
		case err == nil:
			state, _ := h.State()
			return map[string]any{"id": h.ID(), "state": string(state)}, nil
		case isBadRequest(err):
			return nil, &rpcError{Code: rpcInvalidParams, Message: err.Error()}
		case err == jobs.ErrQueueFull:
			return nil, &rpcError{Code: rpcQueueFull, Message: err.Error()}
		default:
			return nil, &rpcError{Code: rpcInternal, Message: err.Error()}
		}
	case "job.status", "job.cancel":
		var ref rpcJobRef
		if err := unmarshalParams(params, &ref); err != nil || ref.ID == "" {
			return nil, &rpcError{Code: rpcInvalidParams, Message: `params must be {"id":"..."}`}
		}
		h, ok := s.mgr.Get(ref.ID)
		if !ok {
			return nil, &rpcError{Code: rpcNotFound, Message: "no job " + ref.ID}
		}
		if method == "job.cancel" {
			h.Cancel()
		}
		return status(h), nil
	case "job.list":
		return s.list(), nil
	case "cache.stats":
		return map[string]any{"cache": s.cache.Stats(), "jobs": s.mgr.Stats()}, nil
	default:
		return nil, &rpcError{Code: rpcMethodNotFound, Message: "unknown method " + method}
	}
}

func unmarshalParams(params json.RawMessage, v any) error {
	if len(params) == 0 {
		return nil
	}
	return json.Unmarshal(params, v)
}
