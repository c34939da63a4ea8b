package engine

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// DeadlineHeader carries a request's remaining deadline budget across process
// boundaries as a positive integer millisecond count. Go contexts stop at the
// process edge, so the coordinator stamps every outbound /v1/cells/execute
// POST with the time left until its request context's deadline — which
// context.WithTimeout has already min-combined from the client's campaign
// budget and the dispatcher's per-request timeout — and the worker rebuilds
// an equivalent deadline on its own solve context. A worker that cannot
// finish inside the advertised budget rejects the range up front instead of
// burning it (see the service's minRangeBudget), and a worker mid-solve stops
// at the deadline rather than completing work nobody is waiting for.
//
// The value is a relative budget, not an absolute timestamp, so propagation
// never depends on clock agreement between processes; the cost is that queue
// time on the receiver eats into the budget only after parsing, which is the
// conservative direction.
const DeadlineHeader = "X-SPG-Deadline"

// stampDeadline records the request context's deadline, if any, on the
// outbound request as a DeadlineHeader budget. An already-expired deadline
// stamps the minimum budget of 1ms — the send is about to fail locally
// anyway, and a zero or negative header would be rejected as malformed.
func stampDeadline(req *http.Request) {
	dl, ok := req.Context().Deadline()
	if !ok {
		return
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
}

// maxDeadlineMS is the largest millisecond budget a time.Duration holds;
// a larger one would wrap negative and expire at once.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// ParseDeadline reads a request's deadline budget from its two spellings,
// a JSON body's deadline_ms (bodyMS, 0 when absent) and the DeadlineHeader;
// the body field wins when both are present. It returns (budget, true, nil)
// for a valid budget, (0, false, nil) when neither spelling is present, and
// an error for a negative, malformed or oversized value — the receiver
// answers 400 rather than guessing whether a garbled budget meant 1ms or 1h.
func ParseDeadline(h http.Header, bodyMS int64) (time.Duration, bool, error) {
	switch {
	case bodyMS < 0:
		return 0, false, fmt.Errorf("deadline_ms %d is negative", bodyMS)
	case bodyMS > maxDeadlineMS:
		return 0, false, fmt.Errorf("deadline_ms %d exceeds the largest budget, %d", bodyMS, maxDeadlineMS)
	case bodyMS > 0:
		return time.Duration(bodyMS) * time.Millisecond, true, nil
	}
	raw := h.Get(DeadlineHeader)
	if raw == "" {
		return 0, false, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 || ms > maxDeadlineMS {
		return 0, false, fmt.Errorf("malformed %s header %q: want a positive integer millisecond budget of at most %d", DeadlineHeader, raw, maxDeadlineMS)
	}
	return time.Duration(ms) * time.Millisecond, true, nil
}
