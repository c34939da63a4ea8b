package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDocumentedOutputs pins the stdout of the documented spgmap commands
// byte for byte. Each golden file was recorded from the binary before the
// command-line tools lowered their workloads through the /v1/map cell; none
// of these commands passes -ccr, so the lowering must not move a byte.
func TestDocumentedOutputs(t *testing.T) {
	for _, tc := range []struct{ golden, args string }{
		{"fmradio_autoperiod", "-workload streamit:FMRadio -grid 4x4 -autoperiod"},
		{"random_autoperiod_simulate", "-workload random:n=30,elev=4,seed=7 -grid 4x4 -autoperiod -simulate"},
		{"chain_dpa1d_verbose", "-workload chain:n=12 -grid 4x4 -period 0.5 -heuristic DPA1D -v"},
		{"fmradio_period", "-workload streamit:FMRadio -grid 4x4 -period 0.1"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(strings.Fields(tc.args), &out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("spgmap %s:\n got:\n%s\nwant:\n%s", tc.args, out.Bytes(), want)
			}
		})
	}
}

// TestRunErrors: bad flags and workloads fail with an error instead of
// exiting the process.
func TestRunErrors(t *testing.T) {
	for _, args := range []string{
		"-workload streamit:Nope",
		"-workload random:n=1",
		"-workload streamit:DCT -ccr -1",
		"-workload streamit:DCT -ccr NaN",
		"-grid 0x4",
		"-heuristic BOGUS",
		"-no-such-flag",
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(args), &out); err == nil {
			t.Errorf("spgmap %s succeeded", args)
		}
	}
}
