package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
)

// The HTTP scaffold a shard server and the router in front of it share:
// the status-capturing writer their middlewares log and count from, the
// JSON response writers, the bounded request-body readers, and the
// /v1/topk request grammar — so the two speak one dialect by
// construction, not by parallel maintenance.

// MaxBodyBytes bounds every request body. Batch and k limits can only be
// checked once a body is decoded, so without a byte bound a client could
// make the server materialize an arbitrarily large request before any
// limit applied. 16 MB holds a MaxBatch-sized batch at any realistic
// limit with room to spare.
const MaxBodyBytes = 16 << 20

// StatusRecorder captures the response status for metrics and logs.
type StatusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *StatusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *StatusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// Status reports the status sent, 200 if the handler wrote nothing.
func (sr *StatusRecorder) Status() int {
	if sr.status == 0 {
		return http.StatusOK
	}
	return sr.status
}

// NewLogger builds a server process's logger from its -log-format and
// -log-level flags. Everything nrpserve and nrprouter print — boot
// progress, per-request lines, background refresh outcomes — goes through
// it, so `-log-format=json` yields machine-parseable output end to end.
func NewLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level: %w", err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format must be text or json, got %q", format)
	}
}

// LogLevel maps a response status onto the request log line's level:
// server faults are errors, client faults warnings.
func LogLevel(code int) slog.Level {
	switch {
	case code >= 500:
		return slog.LevelError
	case code >= 400:
		return slog.LevelWarn
	}
	return slog.LevelInfo
}

// WriteJSON sends body as the JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// WriteError sends the {"error": msg} body every endpoint fails with.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorResponse{Error: msg})
}

// writeBodyError answers a failed body read: 413 when the body ran past
// MaxBodyBytes, 400 for anything else (malformed JSON, a broken stream).
func writeBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
}

// DecodeBody decodes r's JSON body into v, reading at most MaxBodyBytes.
// When it returns false the error response has already been written.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v); err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// ReadBody returns r's raw body for forwarding, under the same bound and
// with the same failure responses as DecodeBody.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		writeBodyError(w, err)
		return nil, false
	}
	return body, true
}

// ParseTopK reads a /v1/topk request — GET query parameters (u, k
// defaulting to 10, stats) or a POST TopKRequest body — resolves it to
// the list of sources, and enforces the batch and k limits. When ok is
// false the error response has already been written.
func ParseTopK(w http.ResponseWriter, r *http.Request, maxBatch, maxK int) (req TopKRequest, us []int, ok bool) {
	switch r.Method {
	case http.MethodGet:
		u, err := strconv.Atoi(r.URL.Query().Get("u"))
		if err != nil {
			WriteError(w, http.StatusBadRequest, "query parameter u must be an integer")
			return req, nil, false
		}
		req.U = &u
		req.K = 10
		if ks := r.URL.Query().Get("k"); ks != "" {
			if req.K, err = strconv.Atoi(ks); err != nil {
				WriteError(w, http.StatusBadRequest, "query parameter k must be an integer")
				return req, nil, false
			}
		}
		switch r.URL.Query().Get("stats") {
		case "", "0", "false":
		default:
			req.Stats = true
		}
	case http.MethodPost:
		if !DecodeBody(w, r, &req) {
			return req, nil, false
		}
	default:
		WriteError(w, http.StatusMethodNotAllowed, "GET or POST only")
		return req, nil, false
	}

	switch {
	case req.U != nil && len(req.Us) > 0:
		WriteError(w, http.StatusBadRequest, `set exactly one of "u" and "us"`)
		return req, nil, false
	case req.U != nil:
		us = []int{*req.U}
	case len(req.Us) > 0:
		us = req.Us
	default:
		WriteError(w, http.StatusBadRequest, `set one of "u" and "us"`)
		return req, nil, false
	}
	if len(us) > maxBatch {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d sources exceeds limit %d", len(us), maxBatch))
		return req, nil, false
	}
	if req.K > maxK {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("k=%d exceeds limit %d", req.K, maxK))
		return req, nil, false
	}
	return req, us, true
}
