package main

import (
	"os"
	"path/filepath"
	"testing"
)

// -cpuprofile must leave a complete profile behind: finish stops the
// profile and closes its file, so a small run's profile is non-empty by
// the time runExperiments returns.
func TestCPUProfileWritten(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	args := []string{
		"-experiment", "fig9", "-scale", "small", "-cores", "1,20",
		"-cpuprofile", prof, "-out", filepath.Join(dir, "fig9.txt"),
	}
	if got := runExperiments(args); got != 0 {
		t.Fatalf("%v: exit %d, want 0", args, got)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("%v: no CPU profile written (err=%v)", args, err)
	}
}
