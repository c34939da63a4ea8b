package chaos

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// formatRules renders rules back into Parse's syntax, every non-zero field
// spelled out, so an accepted spec can be re-parsed from its rules alone.
func formatRules(rules []Rule) string {
	parts := make([]string, len(rules))
	for i, r := range rules {
		fields := []string{string(r.Fault)}
		add := func(key, val string) { fields = append(fields, key+"="+val) }
		if r.Path != "" {
			add("path", r.Path)
		}
		if r.Method != "" {
			add("method", r.Method)
		}
		for _, kv := range []struct {
			key string
			v   int
		}{{"every", r.Every}, {"offset", r.Offset}, {"count", r.Count}, {"code", r.Code}} {
			if kv.v != 0 {
				add(kv.key, strconv.Itoa(kv.v))
			}
		}
		if r.Prob != 0 {
			add("prob", strconv.FormatFloat(r.Prob, 'g', -1, 64))
		}
		if r.Delay != 0 {
			add("d", strconv.FormatInt(int64(r.Delay), 10)+"ns")
		}
		parts[i] = strings.Join(fields, ",")
	}
	return strings.Join(parts, ";")
}

// sameRule compares rules field by field, a NaN probability equal to itself.
func sameRule(a, b Rule) bool {
	pa, pb := a.Prob, b.Prob
	a.Prob, b.Prob = 0, 0
	return a == b && (pa == pb || math.IsNaN(pa) && math.IsNaN(pb))
}

// FuzzParse drives the -chaos rule syntax: Parse must never panic, and
// every spec it accepts must re-parse, from its rules rendered back into
// the syntax, to equal rules. The corpus is seeded with the schedules the
// repository documents and runs (TestParse, the CI fault matrix and
// Parse's own examples).
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"delay,d=400ms,path=/v1/cells/execute,every=3; status,code=503,offset=2,count=1,method=post ;drop,prob=0.25",
		"delay,d=300ms,path=/v1/cells/execute,every=3",
		"status,code=500,path=/v1/cells/execute,every=3",
		"garbage,path=/v1/cells/execute,every=3",
		"status,code=503,every=5,offset=2",
		"drop,prob=0.2;garbage,count=1",
		"truncate,path=/v1/cells/execute",
		"drop,every",
		"delay,d=fast",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := Parse(spec)
		if err != nil {
			return
		}
		again, err := Parse(formatRules(rules))
		if err != nil {
			t.Fatalf("rules of %q rendered as %q do not re-parse: %v", spec, formatRules(rules), err)
		}
		if len(again) != len(rules) {
			t.Fatalf("%q: %d rules re-parsed as %d", spec, len(rules), len(again))
		}
		for i := range rules {
			if !sameRule(again[i], rules[i]) {
				t.Fatalf("%q: rule %d %+v re-parsed as %+v", spec, i, rules[i], again[i])
			}
		}
	})
}
