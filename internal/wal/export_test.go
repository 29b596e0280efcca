package wal

import (
	"os"
	"testing"
)

// FailSyncs makes the next n fsyncs of the package fail with err and later
// ones succeed again — the kernel's behaviour after it has dropped the
// dirty pages and cleared the error — until the test ends. It returns the
// count of fsyncs issued (written under the log's mutex). Shared by the
// in-package tests and the external ones of this directory.
func FailSyncs(t testing.TB, n int, err error) *int {
	t.Helper()
	calls := new(int)
	saved := syncFile
	syncFile = func(f *os.File) error {
		*calls++
		if *calls <= n {
			return err
		}
		return saved(f)
	}
	t.Cleanup(func() { syncFile = saved })
	return calls
}
