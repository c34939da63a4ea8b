// Package chaos is the deterministic fault-injection layer of the mapping
// cluster: a seeded http.RoundTripper wrapper that injects transport faults —
// dropped connections, added latency, synthesized 5xx answers, garbage
// payloads, truncated bodies — according to a declarative schedule instead of
// a random process. Determinism is the point: the engine's campaigns are
// proven byte-identical under re-placement, so the chaos tests can demand the
// strongest robustness criterion there is (identical results and bounded
// retry counts under every fault class), and a failing schedule replays
// exactly from its seed and rule list. Nothing here touches solver results;
// the seed only gates which requests are faulted, honoring the repo's
// no-randomness-in-results invariant.
//
// The layer is used two ways: the engine's dispatcher chaos tests wrap their
// worker clients in a Transport, and cmd/spgserve's -chaos flag (parsed by
// Parse) wraps the coordinator's dispatch client so the CI chaos jobs can
// fault a real multi-process cluster.
package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Kind names a fault class.
type Kind string

const (
	// Drop fails the request outright with a transport error, as a severed
	// connection would; the server never sees the request.
	Drop Kind = "drop"
	// Delay sleeps before forwarding the request, honoring the request
	// context — a delay pushed past the sender's deadline surfaces as the
	// context's error, exactly like a stalled peer.
	Delay Kind = "delay"
	// Status answers with a synthesized HTTP error status (default 500)
	// without forwarding the request.
	Status Kind = "status"
	// Garbage answers 200 with an undecodable body without forwarding the
	// request — a confused or corrupted peer.
	Garbage Kind = "garbage"
	// Truncate forwards the request but cuts the response body in half — a
	// connection lost mid-transfer.
	Truncate Kind = "truncate"
)

// Rule schedules one fault over the stream of matching requests. Matching is
// by method and path substring; firing is decided by the deterministic
// (Every, Offset, Count, Prob) schedule over the rule's own match counter, so
// the same request sequence always faults the same requests.
type Rule struct {
	// Fault is the injected fault class.
	Fault Kind
	// Path, when non-empty, restricts the rule to URLs whose path contains
	// it (e.g. "/v1/cells/execute" spares health probes).
	Path string
	// Method, when non-empty, restricts the rule to one HTTP method.
	Method string
	// Every fires the rule on every Nth matching request (1 = every match;
	// 0 selects 1).
	Every int
	// Offset skips the first Offset matching requests before the Every
	// schedule starts.
	Offset int
	// Count bounds how many times the rule fires (0 = unlimited).
	Count int
	// Prob gates each scheduled firing by a seeded hash in [0, 1): the rule
	// fires when the hash of (seed, rule index, match ordinal) falls below
	// Prob. Outside (0, 1) the gate is off and every scheduled match fires.
	// The hash is pure, so a given seed always faults the same requests.
	Prob float64
	// Delay is the injected latency of a Delay fault.
	Delay time.Duration
	// Code is the synthesized status of a Status fault (default 500).
	Code int
}

// Event records one injected fault, for assertions and operator logs.
type Event struct {
	// Rule is the index of the firing rule in Transport.Rules.
	Rule int
	// Fault is the injected fault class.
	Fault Kind
	// Match is the rule's match ordinal that fired (0-based).
	Match int
	// Method and Path identify the faulted request.
	Method string
	Path   string
}

// Transport is the injecting http.RoundTripper: requests are matched against
// Rules in order and the first rule that fires applies its fault (at most one
// fault per request); everything else forwards to Base untouched.
type Transport struct {
	// Base handles unfaulted requests; nil selects http.DefaultTransport.
	Base http.RoundTripper
	// Seed drives the Prob gates. Two Transports with equal seeds, rules and
	// request sequences inject identical fault schedules.
	Seed int64
	// Rules is the declarative fault schedule.
	Rules []Rule

	mu      sync.Mutex
	matches []int   // guarded by mu; per-rule match ordinals
	fired   []int   // guarded by mu; per-rule firing counts
	events  []Event // guarded by mu
}

// Injected returns how many faults have been injected so far.
func (t *Transport) Injected() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// probGate reports whether the seeded hash of (seed, rule, ordinal) falls
// below p — a pure function, so schedules replay exactly.
func probGate(seed int64, rule, ordinal int, p float64) bool {
	if p <= 0 || p >= 1 {
		return true
	}
	h := fnv.New64a()
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(rule))
	binary.LittleEndian.PutUint64(buf[16:], uint64(ordinal))
	_, _ = h.Write(buf[:])
	frac := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	return frac < p
}

// match reports whether the rule applies to the request at all.
func (r Rule) match(req *http.Request) bool {
	if r.Method != "" && req.Method != r.Method {
		return false
	}
	if r.Path != "" && !strings.Contains(req.URL.Path, r.Path) {
		return false
	}
	return true
}

// decide picks the first rule that fires for this request, advancing every
// matching rule's ordinal, and records the event. Returns the rule index and
// rule, or -1.
func (t *Transport) decide(req *http.Request) (int, Rule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.matches == nil {
		t.matches = make([]int, len(t.Rules))
		t.fired = make([]int, len(t.Rules))
	}
	chosen := -1
	var chosenRule Rule
	var chosenMatch int
	for i, r := range t.Rules {
		if !r.match(req) {
			continue
		}
		n := t.matches[i]
		t.matches[i]++
		if chosen >= 0 {
			continue // ordinals still advance for later rules
		}
		every := r.Every
		if every <= 0 {
			every = 1
		}
		if n < r.Offset || (n-r.Offset)%every != 0 {
			continue
		}
		if r.Count > 0 && t.fired[i] >= r.Count {
			continue
		}
		if !probGate(t.Seed, i, n, r.Prob) {
			continue
		}
		t.fired[i]++
		chosen, chosenRule, chosenMatch = i, r, n
	}
	if chosen >= 0 {
		t.events = append(t.events, Event{
			Rule: chosen, Fault: chosenRule.Fault, Match: chosenMatch,
			Method: req.Method, Path: req.URL.Path,
		})
	}
	return chosen, chosenRule
}

// discardBody fulfills the RoundTripper contract on paths that never forward
// the request: the body must be consumed and closed exactly once.
func discardBody(req *http.Request) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body)
		_ = req.Body.Close()
	}
}

// synthesize builds a response that never touched the network.
func synthesize(req *http.Request, code int, contentType string, body []byte) *http.Response {
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", code, http.StatusText(code)),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{contentType}},
		Body:          io.NopCloser(strings.NewReader(string(body))),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// RoundTrip implements http.RoundTripper: apply the first firing rule's
// fault, forward everything else.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	i, rule := t.decide(req)
	if i < 0 {
		return base.RoundTrip(req)
	}
	switch rule.Fault {
	case Drop:
		discardBody(req)
		return nil, fmt.Errorf("chaos: dropped %s %s (rule %d)", req.Method, req.URL.Path, i)
	case Delay:
		select {
		case <-time.After(rule.Delay):
		case <-req.Context().Done():
			discardBody(req)
			return nil, req.Context().Err()
		}
		return base.RoundTrip(req)
	case Status:
		discardBody(req)
		code := rule.Code
		if code == 0 {
			code = http.StatusInternalServerError
		}
		return synthesize(req, code, "text/plain; charset=utf-8",
			[]byte(fmt.Sprintf("chaos: injected %d (rule %d)", code, i))), nil
	case Garbage:
		discardBody(req)
		return synthesize(req, http.StatusOK, "application/json",
			[]byte("\x00chaos\xffgarbage{{{not json")), nil
	case Truncate:
		resp, err := base.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return nil, err
		}
		cut := body[:len(body)/2]
		resp.Body = io.NopCloser(strings.NewReader(string(cut)))
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
		return resp, nil
	default:
		return nil, fmt.Errorf("chaos: unknown fault kind %q (rule %d)", rule.Fault, i)
	}
}
