package mapreduce

import (
	"os"
	"testing"
)

// TestMain wires hidden worker mode into the test binary: when the
// suite runs with NGRAMS_RUNNER=process — and for the worker-spawning
// tests in this package — this binary is re-executed as the worker for
// the jobs its own tests launch.
func TestMain(m *testing.M) {
	RunWorkerIfRequested()
	os.Exit(m.Run())
}
