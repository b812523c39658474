package simd

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// ErrorCode is a stable machine-readable error identifier, in the same
// spirit as the analysis engine's LSE0xx diagnostic codes: clients match
// on the code, the message is for humans and may change freely.
type ErrorCode string

// The stable code set. Each maps to exactly one HTTP status; new codes
// may be added within the /v1 lifetime, existing ones never change
// meaning or status.
const (
	// CodeBadRequest (400): the request itself is malformed — undecodable
	// JSON, a missing required field, an unknown scheduler or severity
	// name, a non-numeric cycle count.
	CodeBadRequest ErrorCode = "LSD001"
	// CodeNotFound (404): no such program, session or endpoint.
	CodeNotFound ErrorCode = "LSD002"
	// CodeConflict (409): the session already has a mutation (step, run,
	// snapshot, restore, delete) in flight.
	CodeConflict ErrorCode = "LSD003"
	// CodeSpecInvalid (422): the submitted specification parsed as a
	// request but failed to compile — parse, elaboration, build or strict
	// static-analysis errors.
	CodeSpecInvalid ErrorCode = "LSD004"
	// CodeSnapshotInvalid (422): the uploaded checkpoint is not a valid
	// snapshot stream or was taken from a structurally different program.
	CodeSnapshotInvalid ErrorCode = "LSD005"
	// CodeModelError (422): the model itself failed — a
	// communication-contract violation raised by a module handler while
	// stepping, or a snapshot of a model that cannot be checkpointed (a
	// handler-bearing module without core.Stateful, or module state that
	// does not encode).
	CodeModelError ErrorCode = "LSD006"
	// CodeUnavailable (503): the server cannot serve the request right
	// now — session capacity reached, a parked session's checkpoint is
	// unreadable, or single-session mode has no simulator attached yet.
	CodeUnavailable ErrorCode = "LSD007"
)

// status maps a code onto its HTTP status.
func (c ErrorCode) status() int {
	switch c {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeConflict:
		return http.StatusConflict
	case CodeSpecInvalid, CodeSnapshotInvalid, CodeModelError:
		return http.StatusUnprocessableEntity
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// APIError is the one error shape every endpoint answers with, wrapped
// in an {"error": ...} envelope. It doubles as the Go error the Client
// returns, so a remote caller can switch on the same stable codes.
type APIError struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	Details any       `json:"details,omitempty"`

	// Status is the HTTP status the error traveled with; it is derived
	// from Code and not part of the wire format.
	Status int `json:"-"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("%s (%s): %s", e.Code, http.StatusText(e.Status), e.Message)
}

// errorEnvelope is the wire wrapper: {"error": {code, message, details}}.
type errorEnvelope struct {
	Error *APIError `json:"error"`
}

// writeError answers the request with the unified JSON error envelope.
func writeError(w http.ResponseWriter, code ErrorCode, format string, args ...any) {
	writeErrorDetails(w, code, nil, format, args...)
}

func writeErrorDetails(w http.ResponseWriter, code ErrorCode, details any, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code.status())
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(errorEnvelope{Error: &APIError{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
		Details: details,
	}})
}

// writeJSON answers the request with v as indented JSON under status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
