// Chaos mode (-chaos): interleave hostile traffic into the healthy
// schedule and assert the server shrugs it off. Five client-side attack
// shapes cycle through the schedule:
//
//	chaos-stall      a raw connection that sends half its body, idles,
//	                 then vanishes (slow-loris upload)
//	chaos-hangup     a raw connection that closes mid-response
//	chaos-flood      malformed JSON — must 400, never 5xx
//	chaos-oversized  a body beyond the server's MaxBytesReader cap —
//	                 must answer a structured 413, never buffer it
//	chaos-deadline   a healthy request with X-Deadline-Ms: 1 — must
//	                 answer a clean 504 within the deadline
//
// Chaos samples are excluded from the healthy latency percentiles (the
// p99 the CI gate holds against the committed ceiling is measured on
// well-behaved traffic sharing the server with the attack), and a chaos
// request answering anything outside its expected set is counted in
// chaos_unexpected — the run fails if any appear. Server-side fault
// points (server-stall-read, server-conn-reset, server-slow-client) are
// armed on the daemon via CASA_FAULTS; their accounting rides the
// report's fault-injection counter delta so the CI floor can prove the
// chaos run actually injected chaos.
package main

import (
	"fmt"
	"io"
	"net"
	"net/url"
	"strings"
	"time"
)

// Chaos request classes.
const (
	classChaosStall     = "chaos-stall"
	classChaosHangup    = "chaos-hangup"
	classChaosFlood     = "chaos-flood"
	classChaosOversized = "chaos-oversized"
	classChaosDeadline  = "chaos-deadline"
)

// chaosClass reports whether a sample class is chaos traffic (excluded
// from healthy percentiles, gated on expectations instead).
func chaosClass(class string) bool { return strings.HasPrefix(class, "chaos-") }

// stallHold is how long a chaos-stall connection idles on its
// half-sent body before abandoning it.
const stallHold = 300 * time.Millisecond

// interleaveChaos inserts one chaos job every opts.chaosEvery positions,
// cycling the five classes so every attack shape lands several times in
// a CI-sized run.
func interleaveChaos(jobs []job, opts options) []job {
	if !opts.chaos || opts.chaosEvery < 1 {
		return jobs
	}
	classes := []string{classChaosStall, classChaosHangup, classChaosFlood, classChaosOversized, classChaosDeadline}
	// An oversized body: a program larger than the server's whole-body
	// cap (casad's 256 KiB program limit + 64 KiB envelope headroom).
	// No raw newlines — the JSON string must stay syntactically valid
	// past the cap so it is the size guard that answers, not the parser.
	hugeProgram := strings.Repeat("; padding line ", (400<<10)/15)
	out := make([]job, 0, len(jobs)+len(jobs)/opts.chaosEvery+1)
	next := 0
	for i, j := range jobs {
		if i%opts.chaosEvery == 0 {
			cl := classes[next%len(classes)]
			next++
			switch cl {
			case classChaosStall, classChaosHangup:
				out = append(out, job{class: cl, raw: true, body: makeBody("adpcm", 2048, 128)})
			case classChaosFlood:
				out = append(out, job{class: cl, body: []byte(`{"workload":"adpcm","hierarchy":{`), wantCode: 400})
			case classChaosOversized:
				body := []byte(`{"program":"` + hugeProgram + `","hierarchy":{"cache_bytes":2048,"spm_bytes":256}}`)
				out = append(out, job{class: cl, body: body, wantCode: 413})
			case classChaosDeadline:
				// Unique keys (spm ≡ 4 mod 16, disjoint from the cold and
				// dup streams) so no cache hit can answer inside the
				// deadline; 1ms is below the server's deadline margin, so
				// the 504 is immediate and deterministic.
				body := makeBody("adpcm", 2048, 68+16*next)
				out = append(out, job{class: cl, body: body, wantCode: 504, deadlineMS: 1})
			}
		}
		out = append(out, j)
	}
	return out
}

// chaosFire runs the raw-connection attack shapes that http.Client
// cannot express: a half-sent stalled body, and a hangup mid-response.
// Both are expected to produce no usable response — their success
// criterion is that the server survives them, which the healthy
// percentiles and 5xx gates measure.
func chaosFire(opts options, j job, id string) sample {
	s := sample{class: j.class, id: id, expected: true}
	host, err := rawHost(opts.addr)
	if err != nil {
		s.err = err
		s.expected = false
		return s
	}
	t0 := time.Now()
	conn, err := net.DialTimeout("tcp", host, 5*time.Second)
	if err != nil {
		s.err = err
		s.expected = false
		return s
	}
	defer conn.Close()
	head := fmt.Sprintf("POST /v1/allocate HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nX-Request-Id: %s\r\nContent-Length: %d\r\n\r\n",
		host, id, len(j.body))
	switch j.class {
	case classChaosStall:
		// Half the body, a pause, then gone — the server must time the
		// read out or see the abort, never hold the goroutine.
		if _, err := io.WriteString(conn, head); err == nil {
			_, _ = conn.Write(j.body[:len(j.body)/2])
		}
		time.Sleep(stallHold)
	case classChaosHangup:
		// Full request, then close as the response starts arriving.
		if _, err := io.WriteString(conn, head); err == nil {
			_, _ = conn.Write(j.body)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		var one [1]byte
		_, _ = conn.Read(one[:])
	}
	s.dur = time.Since(t0)
	return s
}

// rawHost extracts the host:port a raw TCP chaos connection dials.
func rawHost(addr string) (string, error) {
	u, err := url.Parse(addr)
	if err != nil {
		return "", fmt.Errorf("chaos: bad addr %q: %w", addr, err)
	}
	host := u.Host
	if host == "" {
		return "", fmt.Errorf("chaos: no host in addr %q", addr)
	}
	if u.Port() == "" {
		host += ":80"
	}
	return host, nil
}
