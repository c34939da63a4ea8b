package engine

import (
	"net/http"
	"strconv"
	"testing"
	"time"
)

// TestParseDeadline: each spelling accepts exactly the positive budgets a
// time.Duration holds, the body field wins over the header, and neither
// spelling means no deadline.
func TestParseDeadline(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bodyMS int64
		header string
		want   time.Duration
		ok     bool
		err    bool
	}{
		{name: "absent"},
		{name: "body", bodyMS: 250, want: 250 * time.Millisecond, ok: true},
		{name: "header", header: "250", want: 250 * time.Millisecond, ok: true},
		{name: "body wins", bodyMS: 5, header: "250", want: 5 * time.Millisecond, ok: true},
		{name: "largest body", bodyMS: maxDeadlineMS, want: time.Duration(maxDeadlineMS) * time.Millisecond, ok: true},
		{name: "largest header", header: strconv.FormatInt(maxDeadlineMS, 10), want: time.Duration(maxDeadlineMS) * time.Millisecond, ok: true},
		{name: "negative body", bodyMS: -5, err: true},
		{name: "body past the largest", bodyMS: maxDeadlineMS + 1, err: true},
		{name: "huge body", bodyMS: 10_000_000_000_000, err: true},
		{name: "max int64 body", bodyMS: 1<<63 - 1, err: true},
		{name: "zero header", header: "0", err: true},
		{name: "header past the largest", header: "9223372036855", err: true},
		{name: "max int64 header", header: "9223372036854775807", err: true},
		{name: "garbled header", header: "soon", err: true},
	} {
		h := http.Header{}
		if tc.header != "" {
			h.Set(DeadlineHeader, tc.header)
		}
		got, ok, err := ParseDeadline(h, tc.bodyMS)
		if (err != nil) != tc.err || ok != tc.ok || got != tc.want {
			t.Errorf("%s: (%v, %v, %v), want (%v, %v, error %v)", tc.name, got, ok, err, tc.want, tc.ok, tc.err)
		}
	}
}

// FuzzParseDeadline: an accepted budget is positive and holds exactly the
// milliseconds sent, in whichever spelling carried them; a budget that is
// neither accepted nor rejected was never sent.
func FuzzParseDeadline(f *testing.F) {
	f.Add(int64(0), "")
	f.Add(int64(250), "")
	f.Add(int64(0), "250")
	f.Add(int64(5), "250")
	f.Add(int64(-1), "")
	f.Add(int64(10_000_000_000_000), "")
	f.Add(int64(0), "9223372036855")
	f.Add(int64(0), "+7")
	f.Add(int64(0), "soon")
	f.Fuzz(func(t *testing.T, bodyMS int64, header string) {
		h := http.Header{}
		h.Set(DeadlineHeader, header)
		got, ok, err := ParseDeadline(h, bodyMS)
		if err != nil {
			if ok || got != 0 {
				t.Fatalf("rejected (%v) with budget %v, ok %v", err, got, ok)
			}
			return
		}
		if !ok {
			if got != 0 || bodyMS != 0 || h.Get(DeadlineHeader) != "" {
				t.Fatalf("body %d, header %q: no budget (%v) but one was sent", bodyMS, header, got)
			}
			return
		}
		sent := bodyMS
		if sent == 0 {
			ms, perr := strconv.ParseInt(h.Get(DeadlineHeader), 10, 64)
			if perr != nil {
				t.Fatalf("header %q accepted as %v but is not an integer", header, got)
			}
			sent = ms
		}
		if got <= 0 || int64(got/time.Millisecond) != sent {
			t.Fatalf("body %d, header %q: budget %v, want %d ms", bodyMS, header, got, sent)
		}
	})
}
