package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Network-guard metrics, resolved once.
var (
	mBodyTooLarge = obs.GetCounter("casa_server_body_too_large_total")
	mSlowClients  = obs.GetCounter("casa_server_slow_clients_total")
	mConnResets   = obs.GetCounter("casa_server_conn_resets_total")
	mSlowWrites   = obs.GetCounter("casa_server_slow_writes_total")
)

// bodyLimit is the hard cap MaxBytesReader enforces on one request body:
// the largest legal program source plus headroom for the JSON envelope
// around it. Anything larger is a flood, not a request — it gets a 413
// before the server buffers it.
const bodyLimit = maxProgramBytes + 64<<10

// readRequest decodes one allocation request body under the network
// guards:
//
//   - a per-request read deadline (bodyReadTimeout) is the slow-loris
//     defense — a client dribbling its upload gets a structured 408 when
//     the deadline expires instead of holding this handler goroutine for
//     the listener-wide readTimeout;
//   - http.MaxBytesReader caps the body at bodyLimit, so an
//     oversized flood is cut off with a structured 413 instead of being
//     buffered into memory;
//   - the server-stall-read fault point emulates the stalled upload
//     (chaos tests arm it to prove the guards hold).
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request) (Request, error) {
	var req Request
	rc := http.NewResponseController(w)
	// Not every ResponseWriter can carry a read deadline (httptest
	// recorders cannot); the guard degrades to the listener timeouts.
	deadlineSet := rc.SetReadDeadline(time.Now().Add(s.bodyReadTimeout)) == nil
	if fault.Hit(fault.ServerStallRead) {
		// Emulate the dribbled upload: hold the read path long enough
		// that the per-request deadline (when the transport supports
		// one) expires before the decode below can finish.
		time.Sleep(s.stallDelay)
	}
	body := http.MaxBytesReader(w, r.Body, bodyLimit)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if deadlineSet {
		if err == nil {
			// Clear the deadline so it cannot bleed into a later read.
			_ = rc.SetReadDeadline(time.Time{})
		} else {
			// Keep reads dead. After the handler returns, net/http tries
			// to drain the unread body before flushing the buffered
			// response (to decide connection reuse); against a stalled
			// client that drain would block forever on a cleared
			// deadline, and the error answer below would never reach the
			// wire.
			_ = rc.SetReadDeadline(time.Now())
		}
	}
	if err == nil {
		return req, nil
	}
	var mbe *http.MaxBytesError
	var ne net.Error
	switch {
	case errors.As(err, &mbe):
		mBodyTooLarge.Inc()
		return req, &httpError{
			code: http.StatusRequestEntityTooLarge,
			msg:  fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit),
		}
	case errors.Is(err, os.ErrDeadlineExceeded), errors.As(err, &ne) && ne.Timeout():
		mSlowClients.Inc()
		return req, &httpError{
			code: http.StatusRequestTimeout,
			msg:  fmt.Sprintf("request body not received within %s", s.bodyReadTimeout),
		}
	default:
		return req, badRequestf("decode request: %v", err)
	}
}

// resetConn is the server-conn-reset fault: hijack the connection and
// hard-close it (SO_LINGER 0, so the peer sees a TCP RST, not a tidy
// FIN) — the mid-response hangup a crashed proxy produces. Writers that
// cannot hijack (httptest recorders, HTTP/2) just drop the body.
func (s *Server) resetConn(w http.ResponseWriter) {
	mConnResets.Inc()
	conn, _, err := http.NewResponseController(w).Hijack()
	if err != nil {
		return
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = conn.Close()
}

// writeSlowly is the server-slow-client fault: trickle the response out
// in tiny flushed chunks with slowChunkDelay pauses, emulating a slow
// consumer holding the connection open — the traffic shape the listener
// writeTimeout exists to bound.
func (s *Server) writeSlowly(w http.ResponseWriter, v any) {
	mSlowWrites.Inc()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	const chunk = 64
	b := buf.Bytes()
	for len(b) > 0 {
		n := chunk
		if n > len(b) {
			n = len(b)
		}
		if _, err := w.Write(b[:n]); err != nil {
			return
		}
		_ = rc.Flush()
		b = b[n:]
		if len(b) > 0 {
			time.Sleep(slowChunkDelay)
		}
	}
}
